"""Span tracing of scmkit from outside the library.

``Tracer.install`` wraps the public functions in ``TARGETS`` and rebinds every
scmkit module attribute that refers to an original, so calls between modules
(``markov`` calling ``graph.sigma_separated``, ``cli`` calling ``dsl.parse``)
go through the wrapper too.  Spans are (name, start, end, parent, query,
extra) tuples kept in memory; ``extra`` holds a count taken from the result,
such as the rows a parse tabulated.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _table_rows(model) -> int:
    # Linear models have no mechanism tables.
    return sum(len(mech.table) for mech in getattr(model, "mechanisms", {}).values())


# (module, attribute, span name, result -> extra).  A dotted attribute names a
# method on a class of that module.
TARGETS = (
    ("scmkit.dsl", "parse", "dsl.parse", _table_rows),
    ("scmkit.dsl", "serialize", "dsl.serialize", None),
    ("scmkit.scm", "functional_graph", "scm.functional_graph", None),
    ("scmkit.graph", "sigma_separated", "graph.sigma_separated", int),
    ("scmkit.graph", "d_separated", "graph.d_separated", int),
    ("scmkit.graph", "enumerate_loops", "graph.enumerate_loops", len),
    ("scmkit.analysis", "observational_distribution", "analysis.observational_distribution", None),
    ("scmkit.analysis", "uniquely_solvable_wrt", "analysis.uniquely_solvable_wrt", None),
    ("scmkit.analysis", "_support_assignments", "analysis.support_points", None),
    ("scmkit.analysis", "DiscreteDistribution.marginal", "analysis.marginal", None),
    ("scmkit.analysis", "observational_polytope", "analysis.observational_polytope",
     lambda poly: len(poly.vertices)),
    ("scmkit.transform", "intervene", "transform.intervene", None),
    ("scmkit.transform", "twin", "transform.twin", None),
    ("scmkit.markov", "verify_markov", "markov.verify_markov", lambda rep: len(rep.entries)),
    ("scmkit.markov", "conditional_independent", "markov.conditional_independent", None),
    ("scmkit.causal", "observationally_equivalent", "causal.observationally_equivalent", None),
    ("scmkit.causal", "interventionally_equivalent", "causal.interventionally_equivalent", None),
    ("scmkit.causal", "counterfactually_equivalent", "causal.counterfactually_equivalent", None),
)

# Generator functions: one span per value produced, so the time spent making
# support points is separated from the fiber search that consumes them.
GENERATORS = {"analysis.support_points"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = None
        self._restore = []

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.query, None)
            if extra is not None:
                spans[idx] = (name, t0, t1, parent, self.query, extra(result))
            return result

        return traced

    def wrap_generator(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1] if stack else -1
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                spans.append((name, t0, perf_counter(), parent, self.query, None))
                yield item

        return traced

    def install(self):
        """Wrap every target and rebind the names scmkit modules import."""
        modules = [m for n, m in list(sys.modules.items()) if n == "scmkit" or n.startswith("scmkit.")]
        for mod_name, attr, name, extra in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = modules
            orig = getattr(owner, attr)
            if name in GENERATORS:
                wrapped = self.wrap_generator(name, orig)
            else:
                wrapped = self.wrap(name, orig, extra)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def add_span(self, name, t0, t1) -> int:
        """Record a span measured by the caller, e.g. a child process."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, t0, t1, parent, self.query, None))
        return len(self.spans) - 1

    def adopt(self, child_spans, parent: int):
        """Append spans recorded in another process under span ``parent``."""
        base = len(self.spans)
        for name, t0, t1, par, _query, extra in child_spans:
            self.spans.append((name, t0, t1, base + par if par >= 0 else parent, self.query, extra))


def self_times(spans) -> list:
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _name, t0, t1, parent, _q, _x in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - c for (_n, t0, t1, _p, _q, _x), c in zip(spans, child)]
