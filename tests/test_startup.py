"""numpy is imported on first use by the linear path only: finite models,
graphs and in-process CLI calls (``cli.run``) run without it.  The
``scmkit`` command (``cli.main``) loads it up front, so its start-up cost is
the same for finite and linear files."""

import os
import subprocess
import sys
from pathlib import Path

import scmkit

CORPUS = Path(__file__).parent / "corpus"

SCRIPT = """
import contextlib, io, sys
import scmkit as sk
from scmkit import cli

def numpy_loaded():
    return "numpy" in sys.modules

corpus = sys.argv[1]
assert not numpy_loaded(), "import scmkit"
for name in ("ex_chain.scm", "ex_product_m.scm"):
    m = sk.parse(open(f"{corpus}/{name}").read())
    names = list(m.endogenous_names)
    g = sk.functional_graph(m)
    sk.observational_distribution(m)
    assert sk.observationally_equivalent(m, m, names).verdict
    assert sk.interventionally_equivalent(m, m, names).verdict
    sk.twin(m)
    sk.marginalize(m, names[-1:])
    sk.sigma_separated(g, names[:1], names[-1:], names[1:-1])
    sk.d_separated(g, names[:1], names[-1:], names[1:-1])
    assert not numpy_loaded(), name
# not uniquely solvable: the exact hull LP decides
loop, loop_tilde = (sk.parse(open(f"{corpus}/{name}").read())
                    for name in ("ex_nonunique_selfloop.scm", "ex_nonunique_selfloop_tilde.scm"))
assert "outside" in sk.observationally_equivalent(loop, loop_tilde, ["X1", "X2"]).witness
assert not numpy_loaded(), "equivalence LP"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["parse", f"{corpus}/ex_chain.scm"]) == 0
    assert cli.run(["equiv", f"{corpus}/ex_product_m.scm", f"{corpus}/ex_product_tilde.scm",
                    "--level", "int"]) == 0
assert not numpy_loaded(), "cli"
sk.observational_distribution(sk.parse(open(f"{corpus}/ex_lingauss.scm").read()))
assert numpy_loaded(), "the linear path loads numpy"
"""


def test_finite_and_graph_work_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(scmkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(CORPUS)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


MAIN_SCRIPT = """
import contextlib, io, sys
from scmkit import cli

assert "numpy" not in sys.modules, "import scmkit.cli"
sys.argv = ["scmkit", "parse", sys.argv[1]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main()
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert "numpy" in sys.modules, "the scmkit command loads numpy up front"
"""


def test_command_loads_numpy_for_finite_files_too():
    env = dict(os.environ, PYTHONPATH=str(Path(scmkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", MAIN_SCRIPT, str(CORPUS / "ex_chain.scm")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
