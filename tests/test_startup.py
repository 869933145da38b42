"""numpy is imported on first use only: finite models, graphs and every
finite CLI call except ``markov``, in process (``cli.run``) or as the
``scmkit`` command (``cli.main``), run without it.  Linear files load it on
first use, and so does ``markov``, whose independence kernel uses numpy."""

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
# not uniquely solvable: the laws of the projected fiber sets decide
loop, loop_tilde = (sk.parse(open(f"{corpus}/{name}").read())
                    for name in ("ex_nonunique_selfloop.scm", "ex_nonunique_selfloop_tilde.scm"))
assert "outside" in sk.observationally_equivalent(loop, loop_tilde, ["X1", "X2"]).witness
assert not numpy_loaded(), "fiber-set laws"
# every finite command form but markov, on both files; exit 1 is a false verdict
for name, do, var in (("ex_chain.scm", "X1=1", "X2"), ("ex_product_m.scm", "X1=-1", "X2")):
    f = f"{corpus}/{name}"
    forms = [["parse", f], ["twin", f], ["extend", f], ["polytope", f],
             ["dist", f], ["dist", f, "--do", do], ["intervene", f, "--set", do],
             ["marginalize", f, "--over", var],
             ["check", f, "--solvable", var], ["check", f, "--unique", var],
             ["check", f, "--structural"], ["check", f, "--all-subsets"],
             ["counterfactual", f, "--factual-do", do, "--cf-do", do, "--query", var + "'"],
             ["sep", f, "--a", "X1", "--b", var, "--kind", "d"],
             ["sep", f, "--a", "X1", "--b", var, "--kind", "sigma"]]
    forms += [["graph", f, "--kind", kind] for kind in ("augmented", "functional", "causal")]
    forms += [["equiv", f, f"{corpus}/ex_product_tilde.scm" if "product" in name else f,
               "--level", level] for level in ("obs", "int", "cf")]
    for argv in forms:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) in (0, 1), argv
        assert not numpy_loaded(), argv
if sys.argv[2] == "linear":
    sk.observational_distribution(sk.parse(open(f"{corpus}/ex_lingauss.scm").read()))
    assert numpy_loaded(), "the linear path loads numpy"
else:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["markov", f"{corpus}/ex_chain.scm"]) == 0
    assert numpy_loaded(), "markov's independence kernel loads numpy"
"""


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(scmkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(CORPUS), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_finite_and_graph_work_never_imports_numpy():
    run_script(SCRIPT, "linear")


def test_markov_is_the_finite_command_that_loads_numpy():
    run_script(SCRIPT, "markov")


MAIN_SCRIPT = """
import contextlib, io, sys
from scmkit import cli

corpus = sys.argv[1]

def main(name):
    sys.argv = ["scmkit", "dist", f"{corpus}/{name}"]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main()
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    return "numpy" in sys.modules

assert "numpy" not in sys.modules, "import scmkit.cli"
assert not main("ex_chain.scm"), "the scmkit command on a finite file"
assert main("ex_lingauss.scm"), "the scmkit command on a linear file"
"""


def test_command_loads_numpy_for_linear_files_only():
    run_script(MAIN_SCRIPT)
