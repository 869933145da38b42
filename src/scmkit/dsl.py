"""The `.scm` model specification language: parser, evaluator and serializer.

Both families read one statement grammar (``_statements``); each supplies
only its ``var`` and ``noise`` readers and its equation right-hand side.
Finite models tabulate each equation over the product of the referenced
domains; the expression is kept (in canonical rendering) only for
serialization fidelity.  Linear models restrict equations to sums of
coefficient*name terms plus an intercept.

Serialization is canonical: LF line endings, single spaces, sorted
declarations, probabilities in domain order.  parse(serialize(m)) returns an
equivalent model and serialize is a fixed point on parsed models.
"""

from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction

from .config import np
from .errors import ParseError, ScmError, TabulationError
from .scm import (
    FiniteDomain,
    FiniteScm,
    GaussianBlock,
    LinearScm,
    TabularMechanism,
    is_finite,
)

__all__ = ["ModelSource", "parse", "parse_source", "serialize", "parse_value_literal"]

RESERVED = {"model", "finite", "linear", "var", "noise", "eq", "ind", "Normal", "mean", "cov"}

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*")
_FLOAT_RE = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+")
_INT_RE = re.compile(r"\d+")
_OPS = ("==", "!=", "<", ">", "{", "}", "(", ")", "[", "]", ":", ",", "~", "=", "+", "-", "*", "/")

_MAX_DEPTH = 200


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def _tokenize(text: str):
    tokens = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch in " \t\r":
                col += 1
                continue
            m = _NAME_RE.match(line, col)
            if m:
                tokens.append(_Token("NAME", m.group(), lineno, col + 1))
                col = m.end()
                continue
            m = _FLOAT_RE.match(line, col)
            if m:
                tokens.append(_Token("FLOAT", m.group(), lineno, col + 1))
                col = m.end()
                continue
            m = _INT_RE.match(line, col)
            if m:
                tokens.append(_Token("INT", m.group(), lineno, col + 1))
                col = m.end()
                continue
            for op in _OPS:
                if line.startswith(op, col):
                    tokens.append(_Token("OP", op, lineno, col + 1))
                    col += len(op)
                    break
            else:
                raise ParseError(f"unexpected character {ch!r}", lineno, col + 1)
        if tokens and tokens[-1].kind != "NEWLINE":
            tokens.append(_Token("NEWLINE", "\n", lineno, len(line) + 1))
    tokens.append(_Token("EOF", "", len(text.split("\n")) + 1, 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind, value=None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            self.fail(f"expected {want!r}, found {tok.value!r}")
        return self.advance()

    def expect_name(self, keyword=None) -> _Token:
        tok = self.expect("NAME")
        if keyword is not None and tok.value != keyword:
            self.fail(f"expected {keyword!r}, found {tok.value!r}", tok)
        return tok

    def at_op(self, value) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value == value

    def skip_newlines(self):
        while self.peek().kind == "NEWLINE":
            self.advance()

    def declare(self, tok) -> _Token:
        """Record a declared name and its (line, col); it must be new and not reserved."""
        if tok.value in RESERVED:
            self.fail(f"{tok.value!r} is a reserved word", tok)
        if tok.value in self.names:
            self.fail(f"duplicate name {tok.value!r}", tok)
        self.names[tok.value] = (tok.line, tok.col)
        return tok

    def end_statement(self):
        tok = self.peek()
        if tok.kind == "EOF":
            return
        if tok.kind != "NEWLINE":
            self.fail(f"unexpected {tok.value!r} at end of statement")
        self.advance()

    def parse_list(self, open, close, item) -> list:
        """``open item (, item)* close``: one or more items, no trailing comma."""
        self.expect("OP", open)
        items = [item()]
        while self.at_op(","):
            self.advance()
            items.append(item())
        self.expect("OP", close)
        return items

    # --- literals ----------------------------------------------------------

    def parse_ratio(self) -> tuple:
        """An ``INT [/ INT]`` literal as ``(numerator, denominator)``, the
        denominator 1 when it is absent and never 0."""
        num = int(self.expect("INT").value)
        if not self.at_op("/"):
            return num, 1
        self.advance()
        den = self.expect("INT")
        if int(den.value) == 0:
            self.fail("zero denominator", den)
        return num, int(den.value)

    def parse_rational(self):
        """Signed integer or p/q rational (exact)."""
        negative = False
        if self.at_op("-"):
            self.advance()
            negative = True
        value = Fraction(*self.parse_ratio())
        if negative:
            value = -value
        return _normalize_atom(value)

    def parse_number(self):
        """Signed decimal, integer or rational coefficient, as the exact
        ``Fraction`` it spells (a decimal that underflows a float: 0).  A
        number beyond the float range is a ``ParseError`` at its token."""
        negative = False
        if self.at_op("-"):
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind == "FLOAT":
            self.advance()
            value = Fraction(tok.value) if float(tok.value) else Fraction(0)
        elif tok.kind == "INT":
            value = Fraction(*self.parse_ratio())
        else:
            self.fail(f"expected a number, found {tok.value!r}")
        if abs(value) > sys.float_info.max:
            self.fail("number beyond the float range", tok)
        return -value if negative else value

    # --- finite expressions --------------------------------------------------

    def parse_expr(self, depth=0):
        """A ``+``/``-`` chain is one ``("add", ops, *terms)`` node, ``ops``
        the sign of each term after the first, and a ``*`` chain one
        ``("mul", *factors)``: the tree is as deep as the nesting, which
        ``_MAX_DEPTH`` bounds, however long a chain is."""
        if depth > _MAX_DEPTH:
            self.fail("expression nested too deeply")
        terms, ops = [self.parse_term(depth + 1)], []
        while self.at_op("+") or self.at_op("-"):
            ops.append(self.advance().value)
            terms.append(self.parse_term(depth + 1))
        return ("add", "".join(ops), *terms) if ops else terms[0]

    def parse_term(self, depth):
        factors = [self.parse_factor(depth + 1)]
        while self.at_op("*"):
            self.advance()
            factors.append(self.parse_factor(depth + 1))
        return ("mul", *factors) if len(factors) > 1 else factors[0]

    def parse_factor(self, depth):
        if depth > _MAX_DEPTH:
            self.fail("expression nested too deeply")
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.advance()
            return ("neg", self.parse_factor(depth + 1))
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            node = self.parse_expr(depth + 1)
            self.expect("OP", ")")
            return node
        if tok.kind == "INT":
            return ("num", Fraction(*self.parse_ratio()))
        if tok.kind == "FLOAT":
            self.fail("decimal literals are not allowed in finite models; use p/q rationals")
        if tok.kind == "NAME" and tok.value == "ind":
            self.advance()
            self.expect("OP", "(")
            left = self.parse_expr(depth + 1)
            op_tok = self.peek()
            if not (op_tok.kind == "OP" and op_tok.value in ("==", "!=", "<", ">")):
                self.fail(f"expected a comparison operator, found {op_tok.value!r}")
            self.advance()
            right = self.parse_expr(depth + 1)
            self.expect("OP", ")")
            return ("ind", op_tok.value, left, right)
        if tok.kind == "NAME":
            self.advance()
            return ("name", tok.value, (tok.line, tok.col))
        self.fail(f"expected an expression, found {tok.value!r}")


def _normalize_atom(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _names(node):
    """Each (name, (line, col)) of a parsed expression, in source order."""
    kind = node[0]
    if kind == "name":
        yield node[1], node[2]
    elif kind != "num":
        for child in node[2 if kind in ("ind", "add") else 1:]:
            yield from _names(child)


def _expr_eval(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "name":
        return env[node[1]]
    if kind == "neg":
        return -Fraction(_expr_eval(node[1], env))
    if kind == "add":
        total = Fraction(_expr_eval(node[2], env))
        for op, term in zip(node[1], node[3:]):
            value = _expr_eval(term, env)
            total = total + value if op == "+" else total - value
        return total
    if kind == "mul":
        total = Fraction(_expr_eval(node[1], env))
        for factor in node[2:]:
            total *= _expr_eval(factor, env)
        return total
    if kind == "ind":
        op, left, right = node[1], node[2], node[3]
        lv = Fraction(_expr_eval(left, env))
        rv = Fraction(_expr_eval(right, env))
        hit = {"==": lv == rv, "!=": lv != rv, "<": lv < rv, ">": lv > rv}[op]
        return Fraction(1 if hit else 0)
    raise AssertionError(f"unknown AST node {kind}")  # pragma: no cover


_PREC = {"add": 1, "mul": 2, "neg": 3, "num": 4, "name": 4, "ind": 4}


def _render_expr(node, parent_prec=0) -> str:
    kind = node[0]
    if kind == "num":
        text = str(node[1])
    elif kind == "name":
        text = node[1]
    elif kind == "neg":
        text = "-" + _render_expr(node[1], _PREC["neg"])
    elif kind == "mul":
        text = "*".join(_render_expr(f, _PREC["mul"] + (k > 0)) for k, f in enumerate(node[1:]))
    elif kind == "add":
        text = _render_expr(node[2], _PREC["add"]) + "".join(
            f" {op} " + _render_expr(term, _PREC["add"] + 1) for op, term in zip(node[1], node[3:]))
    elif kind == "ind":
        text = f"ind({_render_expr(node[2])} {node[1]} {_render_expr(node[3])})"
    else:  # pragma: no cover
        raise AssertionError(kind)
    if _PREC[kind] < parent_prec:
        return "(" + text + ")"
    return text


def _value_ast(value):
    if isinstance(value, Fraction) and value < 0:
        return ("neg", ("num", -value))
    if isinstance(value, int) and value < 0:
        return ("neg", ("num", Fraction(-value)))
    return ("num", Fraction(value))


# --- model assembly ----------------------------------------------------------

class ModelSource:
    """A parsed model together with its raw text and a map from declared
    names to their source positions (line, col)."""

    __slots__ = ("raw", "model", "source_map")

    def __init__(self, raw, model, source_map):
        self.raw = raw
        self.model = model
        self.source_map = dict(source_map)


def parse_source(text: str) -> ModelSource:
    """Parse `.scm` source, keeping the raw text and declaration positions.

    Raises ParseError with line:col on syntax or resolution problems and
    TabulationError when an equation leaves its codomain on an assignment
    whose exogenous part has positive probability.
    """
    p = _Parser(text)
    p.skip_newlines()
    p.expect_name("model")
    kind_tok = p.expect("NAME")
    if kind_tok.value == "finite":
        model, source_map = _parse_finite(p)
    elif kind_tok.value == "linear":
        model, source_map = _parse_linear(p)
    else:
        p.fail(f"expected 'finite' or 'linear', found {kind_tok.value!r}", kind_tok)
    return ModelSource(text, model, source_map)


def parse(text: str):
    """Parse `.scm` source into a FiniteScm or LinearScm (see parse_source)."""
    return parse_source(text).model


def _statements(p: _Parser, var, noise, rhs):
    """Read the statements after ``model <family>``, one per line.  ``var`` and
    ``noise`` read the rest of their lines (``var`` returns the names it
    declares) and ``rhs`` the right-hand side of each ``eq NAME = ...``.
    Returns ``(equations, endo, source_map)``; ``equations`` yields each
    ``(name, rhs)`` in file order once its name is checked to be a declared
    variable, then raises for a variable without an equation."""
    p.end_statement()
    endo, equations = [], {}
    while True:
        p.skip_newlines()
        tok = p.peek()
        if tok.kind == "EOF":
            break
        if tok.kind != "NAME":
            p.fail(f"expected a declaration, found {tok.value!r}")
        if tok.value == "model":
            p.fail("only one model declaration is allowed")
        if tok.value not in ("var", "noise", "eq"):
            p.fail(f"unknown declaration {tok.value!r}")
        p.advance()
        if tok.value == "var":
            endo.extend(var(p))
        elif tok.value == "noise":
            noise(p)
        else:
            name_tok = p.expect("NAME")
            if name_tok.value in equations:
                p.fail(f"duplicate equation for {name_tok.value!r}", name_tok)
            p.expect("OP", "=")
            equations[name_tok.value] = (rhs(p), name_tok)
        p.end_statement()
    return _declared_equations(p, endo, equations), endo, p.names


def _declared_equations(p: _Parser, endo, equations):
    for name, (value, tok) in equations.items():
        if name not in endo:
            p.fail(f"equation for undeclared variable {name}", tok)
        yield name, value
    for name in endo:
        if name not in equations:
            raise ScmError(f"variable {name} has no equation")


def _parse_finite(p: _Parser) -> FiniteScm:
    endo, exo, measure = {}, {}, {}

    def var(p):
        tok = p.declare(p.expect("NAME"))
        p.expect("OP", ":")
        endo[tok.value] = FiniteDomain(_parse_value_set(p))
        return [tok.value]

    def noise(p):
        tok = p.declare(p.expect("NAME"))
        p.expect("OP", ":")
        exo[tok.value] = FiniteDomain(_parse_value_set(p))
        p.expect("OP", "~")
        measure[tok.value] = _parse_prob_table(p, exo[tok.value], tok)

    equations, _, source_map = _statements(p, var, noise, _Parser.parse_expr)
    domains = {**endo, **exo}
    mechanisms, expressions = {}, {}
    for name, expr in equations:
        refs = set()
        for ref, pos in _names(expr):
            if ref not in domains:
                raise ParseError(f"undeclared name {ref}", *pos)
            refs.add(ref)
        args = tuple([n for n in endo if n in refs] + [n for n in exo if n in refs])
        mechanisms[name] = _tabulate(name, expr, args, endo, exo, measure)
        expressions[name] = _render_expr(expr)
    return FiniteScm(endo, exo, measure, mechanisms, expressions), source_map


def _parse_value_set(p: _Parser):
    values = p.parse_list("{", "}", p.parse_rational)
    if len(set(values)) != len(values):
        p.fail("duplicate domain value")
    return values


def _parse_prob_table(p: _Parser, domain: FiniteDomain, name_tok: _Token):
    table = {}

    def entry():
        value = p.parse_rational()
        if value not in domain:
            p.fail(f"probability listed for {value!r} outside the domain of {name_tok.value}")
        if value in table:
            p.fail(f"duplicate probability entry for {value!r}")
        p.expect("OP", ":")
        prob_tok = p.peek()
        table[value] = Fraction(p.parse_rational())
        if table[value] < 0:
            p.fail("negative probability", prob_tok)

    p.parse_list("{", "}", entry)
    for v in domain.values:
        table.setdefault(v, Fraction(0))
    total = sum(table.values())
    if total != 1:
        p.fail(f"probabilities of {name_tok.value} sum to {total}, expected 1", name_tok)
    return table


def _tabulate(var, expr, args, endo, exo, measure) -> TabularMechanism:
    domains = {**endo, **exo}
    codomain = endo[var]
    exo_args = [a for a in args if a in exo]
    table = {}
    for combo in itertools.product(*(domains[a].values for a in args)):
        env = dict(zip(args, combo))
        value = _normalize_atom(Fraction(_expr_eval(expr, env)))
        if value in codomain:
            table[combo] = value
            continue
        positive = all(measure[a].get(env[a], 0) > 0 for a in exo_args)
        if positive:
            raise TabulationError(
                f"equation for {var} evaluates to {value!r} outside its domain at {env!r}"
            )
        table[combo] = codomain.first()
    return TabularMechanism(args, table)


def _parse_linear(p: _Parser) -> LinearScm:
    blocks, coords = [], []

    def var(p):
        if p.peek().kind != "NAME":
            p.fail("var declaration needs at least one variable name")
        names = []
        while p.peek().kind == "NAME":
            names.append(p.declare(p.advance()).value)
        return names

    def noise(p):
        group = []
        while p.peek().kind == "NAME" and p.peek().value != "Normal":
            group.append(p.declare(p.advance()).value)
        if not group:
            p.fail("noise declaration needs at least one coordinate name")
        p.expect("OP", ":")
        at = p.peek()
        mean, cov = _parse_normal(p, len(group))
        try:
            blocks.append(GaussianBlock("+".join(group), tuple(group), mean, cov))
        except ScmError as exc:
            raise ParseError(str(exc), at.line, at.col) from None
        coords.extend(group)

    equations, endo, source_map = _statements(p, var, noise, _parse_linear_rhs)
    coord_index = {c: k for k, c in enumerate(coords)}
    endo_index = {v: k for k, v in enumerate(endo)}
    n = len(endo)
    B, Gamma, c = np.zeros((n, n)), np.zeros((n, len(coords))), np.zeros(n)
    for name, (coeffs, intercept, positions) in equations:
        i = endo_index[name]
        # the terms of one name were summed exactly; each sum is rounded once
        for ref, value in [(None, intercept), *coeffs.items()]:
            if abs(value) > sys.float_info.max:
                raise ParseError("sum of terms beyond the float range", *positions[ref])
        c[i] = float(intercept)
        for ref, coef in coeffs.items():
            if ref in endo_index:
                B[i, endo_index[ref]] = float(coef)
            elif ref in coord_index:
                Gamma[i, coord_index[ref]] = float(coef)
            else:
                raise ParseError(f"undeclared name {ref}", *positions[ref])
    return LinearScm(tuple(endo), tuple(blocks), B, Gamma, c), source_map


def _parse_normal(p: _Parser, size: int):
    p.expect_name("Normal")
    p.expect("OP", "(")
    if p.peek().kind == "NAME" and p.peek().value == "mean":
        p.advance()
        p.expect("OP", "=")
        mean = p.parse_list("[", "]", p.parse_number)
        p.expect("OP", ",")
        p.expect_name("cov")
        p.expect("OP", "=")
        cov = p.parse_list("[", "]", lambda: p.parse_list("[", "]", p.parse_number))
        if len(set(map(len, cov))) != 1:
            p.fail("matrix rows have different lengths")
    else:
        if size != 1:
            p.fail("the Normal(m, v) abbreviation is for single-coordinate blocks")
        mean_v = p.parse_number()
        p.expect("OP", ",")
        var_v = p.parse_number()
        mean, cov = [mean_v], [[var_v]]
    p.expect("OP", ")")
    mean = np.array(mean, dtype=float)
    cov = np.array(cov, dtype=float)
    if mean.shape != (size,) or cov.shape != (size, size):
        p.fail(f"Normal parameters do not match the {size} declared coordinate(s)")
    return mean, cov


def _parse_linear_rhs(p: _Parser):
    coeffs = {}
    positions = {}
    intercept = 0
    sign = 1
    if p.at_op("-"):
        p.advance()
        sign = -1
    while True:
        tok = p.peek()
        if tok.kind == "NAME":
            p.advance()
            coeffs[tok.value] = coeffs.get(tok.value, 0) + sign
            positions.setdefault(tok.value, (tok.line, tok.col))
        elif tok.kind in ("INT", "FLOAT"):
            value = sign * p.parse_number()
            if p.at_op("*"):
                p.advance()
                name_tok = p.expect("NAME")
                coeffs[name_tok.value] = coeffs.get(name_tok.value, 0) + value
                positions.setdefault(name_tok.value, (name_tok.line, name_tok.col))
            else:
                intercept += value
                positions.setdefault(None, (tok.line, tok.col))
        else:
            p.fail(f"expected a linear term, found {tok.value!r}")
        if p.at_op("+"):
            p.advance()
            sign = 1
        elif p.at_op("-"):
            p.advance()
            sign = -1
        else:
            break
    return coeffs, intercept, positions


# --- serialization -------------------------------------------------------------

def _table_expression(m: FiniteScm, name: str) -> str:
    mech = m.mechanisms[name]
    if not mech.args:
        return _render_expr(_value_ast(mech.table[()]))
    terms = []
    for combo in itertools.product(*(m.domain_of(a).values for a in mech.args)):
        value = mech.table[combo]
        if value == 0:
            continue
        guards = (("ind", "==", ("name", a), _value_ast(v)) for a, v in zip(mech.args, combo))
        terms.append(_render_expr(("mul", _value_ast(value), *guards)))
    if not terms:
        return "0"
    return " + ".join(terms)


def _require_numeric_domains(m: FiniteScm):
    for name in list(m.endogenous) + list(m.exogenous):
        for v in m.domain_of(name).values:
            if not isinstance(v, (int, Fraction)):
                raise ScmError(
                    f"domain of {name} contains non-numeric atom {v!r}; "
                    "only integer/rational atoms are serializable"
                )


def _coef_str(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def serialize(m) -> str:
    """Canonical textual form; see the module docstring for guarantees."""
    if is_finite(m):
        _require_numeric_domains(m)
        lines = ["model finite"]
        for name in sorted(m.endogenous):
            values = ", ".join(map(str, m.endogenous[name].values))
            lines.append(f"var {name} : {{{values}}}")
        for name in sorted(m.exogenous):
            values = ", ".join(map(str, m.exogenous[name].values))
            probs = ", ".join(
                f"{v}: {Fraction(m.measure[name].get(v, 0))}"
                for v in m.exogenous[name].values
            )
            lines.append(f"noise {name} : {{{values}}} ~ {{{probs}}}")
        for name in sorted(m.endogenous):
            expr = m.expressions.get(name) or _table_expression(m, name)
            lines.append(f"eq {name} = {expr}")
        return "\n".join(lines) + "\n"
    lines = ["model linear", "var " + " ".join(sorted(m.endogenous))]
    for b in sorted(m.blocks, key=lambda b: b.name):
        if len(b.coords) == 1:
            lines.append(f"noise {b.coords[0]} : Normal({_coef_str(b.mean[0])}, {_coef_str(b.cov[0, 0])})")
        else:
            mean = ", ".join(_coef_str(v) for v in b.mean)
            cov = ", ".join("[" + ", ".join(_coef_str(v) for v in row) + "]" for row in b.cov)
            lines.append(f"noise {' '.join(b.coords)} : Normal(mean=[{mean}], cov=[{cov}])")
    coord_order = []
    for b in sorted(m.blocks, key=lambda b: b.name):
        coord_order.extend(b.coords)
    for name in sorted(m.endogenous):
        i = m.endo_index(name)
        terms = []
        for other in sorted(m.endogenous):
            coef = m.B[i, m.endo_index(other)]
            if coef != 0.0:
                terms.append((coef, other))
        coords = m.coord_names
        for coord in coord_order:
            coef = m.Gamma[i, coords.index(coord)]
            if coef != 0.0:
                terms.append((coef, coord))
        if m.c[i] != 0.0:
            terms.append((m.c[i], None))
        if not terms:
            lines.append(f"eq {name} = 0")
            continue
        parts = []
        for idx, (coef, target) in enumerate(terms):
            body = _coef_str(abs(coef)) if target is None else f"{_coef_str(abs(coef))}*{target}"
            if idx == 0:
                parts.append(("-" if coef < 0 else "") + body)
            else:
                parts.append(("- " if coef < 0 else "+ ") + body)
        lines.append(f"eq {name} = " + " ".join(parts))
    return "\n".join(lines) + "\n"


def parse_value_literal(text: str):
    """A single value literal in DSL syntax: integer, p/q rational or decimal.

    Exact atoms come back as int/Fraction; decimals as float.
    """
    text = text.strip()
    try:
        p = _Parser(text)
        tok = p.peek()
        is_float = tok.kind == "FLOAT" or (
            tok.kind == "OP" and tok.value == "-" and p.tokens[p.pos + 1].kind == "FLOAT"
        )
        value = float(p.parse_number()) if is_float else p.parse_rational()
        if p.peek().kind not in ("EOF", "NEWLINE"):
            raise ParseError("trailing characters in value literal")
        return value
    except IndexError:
        raise ParseError(f"malformed value literal {text!r}") from None
