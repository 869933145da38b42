"""Set-up probe: a fresh interpreter that imports scmkit and builds one
workload's inputs, then prints the CLOCK_MONOTONIC reading at which it was
done.  The parent subtracts the reading it took just before starting this
process, which gives ``setup_s`` without interpreter shutdown.

Usage: python scmbench/setup_probe.py ROOT WORKLOAD SEED SMOKE(0|1)
"""

import sys
from pathlib import Path


def main() -> None:
    root = Path(sys.argv[1])
    sys.path.insert(0, str(root / "src"))
    import workloads

    done = workloads.timed_setup(root, sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    print(repr(done))


if __name__ == "__main__":
    main()
