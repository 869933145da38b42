"""Command-line front end: every library operation on `.scm` files.

Exit codes: 0 = success (or boolean result true), 1 = boolean result false,
2 = usage or model error (one-line message on stderr, traceback with
--verbose).  The SCMKIT_TOLERANCE environment variable overrides the zero
tolerance of the linear path.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import analysis, causal, dsl, markov, transform
from .errors import ParseError, ScmError
from .graph import MixedGraph, d_separated, sigma_separated
from .scm import FiniteScm, augmented_graph, functional_graph

__all__ = ["main", "run"]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ScmError(f"cannot read {path}: {exc}") from exc


def _load_model(path: str):
    return dsl.parse(_read(path))


def _parse_assignments(m, text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ScmError(f"malformed assignment {part!r}; expected NAME=value")
        name, _, raw = part.partition("=")
        name, raw = name.strip(), raw.strip()
        try:
            value = dsl.parse_value_literal(raw)
        except ParseError:
            raise ScmError(f"malformed value {raw!r} in {part}; expected an integer, p/q or decimal") from None
        if isinstance(m, FiniteScm):
            if name not in m.endogenous:
                raise ScmError(f"unknown variable {name!r}")
            if value not in m.endogenous[name]:
                raise ScmError(f"value {value!r} outside the domain of {name}")
        else:
            value = float(value)
        out[name] = value
    return out


def _name_list(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _subset_arg(option: str, text: str) -> list:
    """The names in ``text``; an empty list is a usage error, not an absent ``option``."""
    names = _name_list(text)
    if not names:
        raise ScmError(f"{option} names no variable; expected a comma-separated subset")
    return names


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ScmError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path=None):
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scmkit", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="print tracebacks on errors")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("parse", help="validate a model file and echo its canonical form")
    s.add_argument("file")

    s = sub.add_parser("graph", help="extract a graph from a model")
    s.add_argument("file")
    s.add_argument("--kind", choices=["augmented", "functional", "causal"], default="augmented")
    s.add_argument("--context", help="context variables for --kind causal (comma-separated)")
    s.add_argument("--format", choices=["dot", "json"], default="json")
    s.add_argument("-o", "--output")

    s = sub.add_parser("intervene", help="perfect intervention on a model")
    s.add_argument("file")
    s.add_argument("--set", required=True, dest="assignments", help="X=v[,Y=w]")
    s.add_argument("-o", "--output")

    for name, help_text in (("twin", "twin model"), ("extend", "extended model (noises made endogenous)")):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("file")
        s.add_argument("-o", "--output")

    s = sub.add_parser("marginalize", help="marginalize a model over a variable subset")
    s.add_argument("file")
    s.add_argument("--over", required=True, help="comma-separated latent variables")
    s.add_argument("-o", "--output")

    s = sub.add_parser("check", help="solvability checks (exit 0 true / 1 false)")
    s.add_argument("file")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--solvable", help="subset, comma-separated")
    group.add_argument("--unique", help="subset, comma-separated")
    group.add_argument("--structural", action="store_true")
    group.add_argument("--all-subsets", action="store_true", dest="all_subsets")

    s = sub.add_parser("dist", help="observational or interventional distribution")
    s.add_argument("file")
    s.add_argument("--do", dest="do_assignments", help="X=v[,Y=w]")
    s.add_argument("--format", choices=["json"], default="json")
    s.add_argument("-o", "--output")

    s = sub.add_parser("polytope", help="achievable observational distributions (finite)")
    s.add_argument("file")
    s.add_argument("-o", "--output")

    s = sub.add_parser("counterfactual", help="counterfactual query on the twin model")
    s.add_argument("file")
    s.add_argument("--factual-do", dest="factual_do", help="X=v[,Y=w]")
    s.add_argument("--observe", help="X=v[,Y=w]")
    s.add_argument("--cf-do", dest="cf_do", help="X=v[,Y=w]")
    s.add_argument("--query", required=True, help="primed variables, comma-separated (e.g. X2')")
    s.add_argument("-o", "--output")

    s = sub.add_parser("sep", help="d- or sigma-separation (exit 0 separated / 1 not)")
    s.add_argument("file", nargs="?", help="model file; its functional graph is used")
    s.add_argument("--graph", help="graph JSON file instead of a model")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--given", default="")
    s.add_argument("--kind", choices=["d", "sigma"], default="sigma")

    s = sub.add_parser("markov", help="verify the (general) directed global Markov property")
    s.add_argument("file")
    s.add_argument("--kind", choices=["d", "sigma"], default="sigma")
    s.add_argument("--max-cond", type=int, default=None, dest="max_cond")
    s.add_argument("--format", choices=["table", "json"], default="table")
    s.add_argument("-o", "--output")

    s = sub.add_parser("equiv", help="equivalence of two models (exit 0 / 1)")
    s.add_argument("file1")
    s.add_argument("file2")
    s.add_argument("--level", choices=["obs", "int", "cf"], required=True)
    s.add_argument("--wrt", help="margin, comma-separated; defaults to the shared variables")
    s.add_argument("-o", "--output")

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except ScmError as exc:
        print(f"scmkit: error: {exc}", file=sys.stderr)
        if getattr(args, "verbose", False):
            traceback.print_exc()
        return 2


def _dispatch(args) -> int:
    if args.command == "parse":
        model = _load_model(args.file)
        sys.stdout.write(dsl.serialize(model))
        return 0

    if args.command == "graph":
        model = _load_model(args.file)
        if args.kind == "augmented":
            g = augmented_graph(model)
        elif args.kind == "functional":
            g = functional_graph(model)
        else:
            if args.context is not None:
                g = causal.direct_causal_graph_wrt(model, _subset_arg("--context", args.context))
            else:
                g = causal.direct_causal_graph(model)
        text = g.to_dot() if args.format == "dot" else json.dumps(g.to_json_obj(), indent=2) + "\n"
        _emit(text, args.output)
        return 0

    if args.command == "intervene":
        model = _load_model(args.file)
        result = transform.intervene(model, _parse_assignments(model, args.assignments))
        _emit(dsl.serialize(result), args.output)
        return 0

    if args.command == "twin":
        _emit(dsl.serialize(transform.twin(_load_model(args.file))), args.output)
        return 0

    if args.command == "extend":
        _emit(dsl.serialize(transform.extend(_load_model(args.file))), args.output)
        return 0

    if args.command == "marginalize":
        model = _load_model(args.file)
        result = transform.marginalize(model, _subset_arg("--over", args.over))
        _emit(dsl.serialize(result), args.output)
        return 0

    if args.command == "check":
        model = _load_model(args.file)
        if args.solvable is not None:
            res = analysis.solvable_wrt(model, _subset_arg("--solvable", args.solvable))
        elif args.unique is not None:
            res = analysis.uniquely_solvable_wrt(model, _subset_arg("--unique", args.unique))
        elif args.structural:
            ok = analysis.structurally_uniquely_solvable(model)
            print("structurally uniquely solvable" if ok else "has self-loops")
            return 0 if ok else 1
        else:
            ok = analysis.uniquely_solvable_all_subsets(model)
            print("uniquely solvable w.r.t. every subset" if ok else "not uniquely solvable w.r.t. some subset")
            return 0 if ok else 1
        if res:
            print("ok")
            return 0
        print(f"failed for {{{', '.join(res.subset)}}}: witness {res.witness}")
        return 1

    if args.command == "dist":
        model = _load_model(args.file)
        if args.do_assignments:
            dist = analysis.interventional_distribution(model, _parse_assignments(model, args.do_assignments))
        else:
            dist = analysis.observational_distribution(model)
        _emit_json(dist.to_json_obj(), args.output)
        return 0

    if args.command == "polytope":
        model = _load_model(args.file)
        poly = analysis.observational_polytope(model)
        _emit_json(
            {"vars": list(poly.vars), "vertices": [v.to_json_obj() for v in poly.vertices]},
            args.output,
        )
        return 0

    if args.command == "counterfactual":
        model = _load_model(args.file)
        factual = _parse_assignments(model, args.factual_do) if args.factual_do else {}
        cf = _parse_assignments(model, args.cf_do) if args.cf_do else {}
        observed = _parse_assignments(model, args.observe) if args.observe else {}
        dist = analysis.counterfactual_distribution(model, factual, observed, cf, _subset_arg("--query", args.query))
        _emit_json(dist.to_json_obj(), args.output)
        return 0

    if args.command == "sep":
        if bool(args.file) == bool(args.graph):
            raise ScmError("sep needs exactly one of a model file or --graph")
        if args.graph:
            g = MixedGraph.from_json(_read(args.graph))
        else:
            g = functional_graph(_load_model(args.file))
        fn = sigma_separated if args.kind == "sigma" else d_separated
        separated = fn(g, _name_list(args.a), _name_list(args.b), _name_list(args.given))
        print("separated" if separated else "not separated")
        return 0 if separated else 1

    if args.command == "markov":
        model = _load_model(args.file)
        report = markov.verify_markov(model, kind=args.kind, max_conditioning=args.max_cond)
        if args.format == "json":
            _emit_json(report.to_json_obj(), args.output)
        else:
            _emit(report.to_table() + "\n", args.output)
        return 0 if report.ok else 1

    if args.command == "equiv":
        m1 = _load_model(args.file1)
        m2 = _load_model(args.file2)
        margin = _subset_arg("--wrt", args.wrt) if args.wrt is not None else sorted(
            set(m1.endogenous_names) & set(m2.endogenous_names)
        )
        fn = {
            "obs": causal.observationally_equivalent,
            "int": causal.interventionally_equivalent,
            "cf": causal.counterfactually_equivalent,
        }[args.level]
        report = fn(m1, m2, margin)
        _emit_json(report.to_json_obj(), args.output)
        return 0 if report.verdict else 1

    raise ScmError(f"unknown command {args.command!r}")  # pragma: no cover


def main() -> None:
    """The ``scmkit`` command.  Like ``run``, it loads numpy only when the
    command needs it: finite files run without it, except under ``markov``,
    whose independence kernel uses numpy; linear files load it on first use."""
    sys.exit(run())


if __name__ == "__main__":
    main()
