import copy
import itertools
import pickle
import random
import string
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import model_zoo as zoo
from scmkit import (
    FiniteScm,
    LinearScm,
    ParseError,
    ScmError,
    TabulationError,
    functional_graph,
    functional_parents,
    intervene,
    marginalize,
    mechanisms_equivalent,
    observational_distribution,
    parse,
    serialize,
)
from scmkit.dsl import parse_value_literal

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.scm"))

F = Fraction


def linear_coefficients(m: LinearScm) -> dict:
    out = {}
    coords = m.coord_names
    for i, name in enumerate(m.endogenous):
        row = {}
        for j, other in enumerate(m.endogenous):
            if m.B[i, j] != 0:
                row[other] = m.B[i, j]
        for k, coord in enumerate(coords):
            if m.Gamma[i, k] != 0:
                row[coord] = m.Gamma[i, k]
        if m.c[i] != 0:
            row[None] = m.c[i]
        out[name] = row
    return out


def models_agree(m1, m2) -> bool:
    if isinstance(m1, FiniteScm):
        return mechanisms_equivalent(m1, m2)
    c1, c2 = linear_coefficients(m1), linear_coefficients(m2)
    if set(c1) != set(c2):
        return False
    for name in c1:
        if set(c1[name]) != set(c2[name]):
            return False
        if any(abs(c1[name][k] - c2[name][k]) > 1e-12 for k in c1[name]):
            return False
    b1 = {b.name: b for b in m1.blocks}
    b2 = {b.name: b for b in m2.blocks}
    if set(b1) != set(b2):
        return False
    return all(
        b1[n].coords == b2[n].coords
        and np.allclose(b1[n].mean, b2[n].mean)
        and np.allclose(b1[n].cov, b2[n].cov)
        for n in b1
    )


class TestCorpus:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_parse_and_round_trip(self, path):
        text = path.read_text()
        model = parse(text)
        canonical = serialize(model)
        reparsed = parse(canonical)
        assert models_agree(model, reparsed)
        # canonical form is a fixed point of parse . serialize
        assert serialize(reparsed) == canonical

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_pickle_and_deepcopy_round_trip(self, path):
        model = parse(path.read_text())
        functional_graph(model)  # fills the per-model cache
        for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert serialize(copied) == serialize(model)
            if isinstance(model, FiniteScm):
                assert copied._cache == {}
        if isinstance(model, FiniteScm):
            try:
                dist = observational_distribution(model)
            except ScmError:
                return
            for copied in (pickle.loads(pickle.dumps(dist)), copy.deepcopy(dist)):
                assert copied == dist
                assert copied.domains == dist.domains

    def test_corpus_is_nonempty(self):
        assert len(CORPUS) >= 20


class TestFiniteParsing:
    def test_quadratic_equals_identity(self):
        quad = parse((Path(__file__).parent / "corpus" / "ex_mechanism_quadratic.scm").read_text())
        ident = parse((Path(__file__).parent / "corpus" / "ex_mechanism_identity.scm").read_text())
        assert mechanisms_equivalent(quad, ident)

    def test_matches_programmatic_model(self):
        text = (Path(__file__).parent / "corpus" / "ex_product_m.scm").read_text()
        assert mechanisms_equivalent(parse(text), zoo.interventional_equiv_m())

    def test_undeclared_name(self):
        text = "model finite\nvar X : {0, 1}\neq X = Y\n"
        with pytest.raises(ParseError, match=r"3:8: undeclared name Y"):
            parse(text)

    def test_source_map(self):
        from scmkit.dsl import parse_source

        src = parse_source("model finite\nvar X : {0, 1}\nnoise E : {0, 1} ~ {0: 1/2, 1: 1/2}\neq X = E\n")
        assert src.model.endogenous_names == ("X",)
        assert src.source_map["X"] == (2, 5)
        assert src.source_map["E"] == (3, 7)
        assert src.raw.startswith("model finite")

    def test_codomain_violation_names_assignment(self):
        text = "model finite\nvar X : {0, 1}\nnoise E : {0, 1, 2} ~ {0: 1/2, 1: 1/4, 2: 1/4}\neq X = E\n"
        with pytest.raises(TabulationError, match="'E': 2"):
            parse(text)

    def test_codomain_violation_on_null_assignment_is_fine(self):
        text = "model finite\nvar X : {0, 1}\nnoise E : {0, 1, 2} ~ {0: 1/2, 1: 1/2, 2: 0}\neq X = E\n"
        model = parse(text)
        assert model.mechanisms["X"].table[(2,)] in model.endogenous["X"]

    def test_duplicate_name(self):
        text = "model finite\nvar X : {0, 1}\nvar X : {0, 1}\neq X = 0\n"
        with pytest.raises(ParseError, match="duplicate name"):
            parse(text)

    def test_probabilities_must_sum_to_one(self):
        text = "model finite\nvar X : {0, 1}\nnoise E : {0, 1} ~ {0: 1/2, 1: 1/4}\neq X = E\n"
        with pytest.raises(ParseError, match="sum to 3/4"):
            parse(text)

    def test_decimals_rejected_in_finite_models(self):
        text = "model finite\nvar X : {0, 1}\neq X = 0.5\n"
        with pytest.raises(ParseError, match="rationals"):
            parse(text)

    def test_reserved_words_rejected(self):
        text = "model finite\nvar eq : {0, 1}\neq eq = 0\n"
        with pytest.raises(ParseError, match="reserved"):
            parse(text)

    def test_missing_equation(self):
        text = "model finite\nvar X : {0, 1}\n"
        with pytest.raises(ScmError, match="no equation"):
            parse(text)

    def test_comments_and_blank_lines(self):
        text = "# header\nmodel finite\n\nvar X : {0, 1}  # domain\n\neq X = 1\n"
        model = parse(text)
        assert model.mechanisms["X"].table[()] == 1

    def test_tabulation_matches_direct_evaluation(self):
        text = (Path(__file__).parent / "corpus" / "ex_augmented.scm").read_text()
        model = parse(text)
        mech = model.mechanisms["X4"]

        def step(x):
            return {-1: 0, 0: 1, 1: -1}[x]

        for x2, x4, e3 in itertools.product((0, 1), (-1, 0, 1), (0, 1)):
            expected = x4 if x4 * x4 == e3 * x2 else step(x4)
            assert mech({"X2": x2, "X4": x4, "E3": e3}) == expected

    def test_rational_domain_atoms(self):
        text = "model finite\nvar X : {1/2, 1}\nnoise E : {0, 1} ~ {0: 1/2, 1: 1/2}\neq X = 1/2 + E*(1/2)\n"
        model = parse(text)
        assert model.mechanisms["X"].table[(0,)] == F(1, 2)
        assert model.mechanisms["X"].table[(1,)] == 1


class TestLinearParsing:
    def test_marginalization_model_matches_zoo(self):
        text = (Path(__file__).parent / "corpus" / "ex_marginalization.scm").read_text()
        assert models_agree(parse(text), zoo.marginalization_linear())

    def test_correlated_block(self):
        text = (Path(__file__).parent / "corpus" / "ex_treatment_twin.scm").read_text()
        model = parse(text)
        assert len(model.blocks) == 1
        block = model.blocks[0]
        assert block.coords == ("E2", "E3")
        assert block.cov[0, 1] == pytest.approx(0.6)

    def test_non_psd_covariance_rejected(self):
        text = (
            "model linear\nvar X\n"
            "noise E1 E2 : Normal(mean=[0, 0], cov=[[1, 2], [2, 1]])\n"
            "eq X = 1*E1\n"
        )
        with pytest.raises(ParseError, match="positive semi-definite"):
            parse(text)

    def test_mean_cov_shape_mismatch(self):
        text = "model linear\nvar X\nnoise E1 E2 : Normal(0, 1)\neq X = 1*E1\n"
        with pytest.raises(ParseError, match="single-coordinate"):
            parse(text)

    def test_repeated_terms_are_summed_exactly(self):
        # 0.1 + 0.2 - 0.3 is 5.6e-17 in floats and 0 as decimals
        text = ("model linear\nvar X Y\nnoise E : Normal(0, 1)\n"
                "eq X = 0.1*Y + 0.2*Y - 0.3*Y + 1*E + 0.1 + 0.2 - 0.3\neq Y = 0.1*E + 0.2*E + 1/3*E\n")
        model = parse(text)
        assert model.B[0, 1] == 0.0 and model.c[0] == 0.0
        assert model.Gamma[1, 0] == float(Fraction(3, 10) + Fraction(1, 3))
        assert functional_parents(model, "X") == {"E"}

    def test_intercept_and_signs(self):
        text = "model linear\nvar X\nnoise E : Normal(0, 1)\neq X = -0.5*E + 2 - 1\n"
        model = parse(text)
        assert model.c[0] == pytest.approx(1.0)
        assert model.Gamma[0, 0] == pytest.approx(-0.5)


FINITE_HEAD = "model finite\nvar X : {0, 1}\nnoise E : {0, 1} ~ {0: 1/2, 1: 1/2}\n"
LINEAR_HEAD = "model linear\nvar X\nnoise E : Normal(0, 1)\n"
TWO_MATRIX = "model linear\nvar X\nnoise E F : Normal(mean=[0, 0], cov=[[1, 0], [0, 1]])\neq X = E\n"


class TestStatementErrors:
    """Both families read one statement grammar, so each reports the first
    error in the same order: syntax while reading, then each equation in file
    order (its variable, then its names), then a variable without an equation."""

    @pytest.mark.parametrize("text, error, message", [
        (FINITE_HEAD + "eq X = Y\neq Z = 0\n", ParseError, "4:8: undeclared name Y"),
        (FINITE_HEAD + "eq Z = 0\neq X = Y\n", ParseError, "4:4: equation for undeclared variable Z"),
        (FINITE_HEAD.replace("var X", "var W : {0, 1}\nvar X") + "eq X = E + Y\n", ParseError, "5:12: undeclared name Y"),
        (FINITE_HEAD.replace("var X", "var W : {0, 1}\nvar X") + "eq X = E\n", ScmError, "variable W has no equation"),
        (FINITE_HEAD + "eq X = E\neq X = 0\n", ParseError, "5:4: duplicate equation for 'X'"),
        (FINITE_HEAD + "model finite\neq X = E\n", ParseError, "4:1: only one model declaration is allowed"),
        (FINITE_HEAD + "let X = E\n", ParseError, "4:1: unknown declaration 'let'"),
        ("model finite\nvar X : {0, 1,}\neq X = 0\n", ParseError, "2:15: expected 'INT', found '}'"),
        (FINITE_HEAD.replace("1/2}", "1/2,}") + "eq X = E\n", ParseError, "3:36: expected 'INT', found '}'"),
        (LINEAR_HEAD + "eq X = 1*E + 2*Y\neq Z = 0\n", ParseError, "4:16: undeclared name Y"),
        (LINEAR_HEAD + "eq Z = 0\neq X = Y\n", ParseError, "4:4: equation for undeclared variable Z"),
        (LINEAR_HEAD.replace("var X", "var W X") + "eq X = E + Y\n", ParseError, "4:12: undeclared name Y"),
        (LINEAR_HEAD.replace("var X", "var W X") + "eq X = E\n", ScmError, "variable W has no equation"),
        (LINEAR_HEAD + "eq X = E\neq X = 0\n", ParseError, "5:4: duplicate equation for 'X'"),
        (LINEAR_HEAD + "model linear\neq X = E\n", ParseError, "4:1: only one model declaration is allowed"),
        (LINEAR_HEAD + "let X = E\n", ParseError, "4:1: unknown declaration 'let'"),
        (TWO_MATRIX.replace("[0, 0]", "[0, 0,]"), ParseError, "3:31: expected a number, found ']'"),
        (TWO_MATRIX.replace("[0, 1]]", "[0, 1],]"), ParseError, "3:53: expected '[', found ']'"),
        (TWO_MATRIX.replace("[0, 1]]", "[0]]"), ParseError, "3:50: matrix rows have different lengths"),
        ("model linear\nvar\nvar X\nnoise E : Normal(0, 1)\neq X = E\n", ParseError,
         "2:4: var declaration needs at least one variable name"),
    ], ids=[
        "finite: bad name before an undeclared variable",
        "finite: undeclared variable before a bad name",
        "finite: bad name beside a missing equation",
        "finite: missing equation",
        "finite: duplicate equation",
        "finite: second model line",
        "finite: unknown keyword",
        "finite: trailing comma in a value set",
        "finite: trailing comma in a probability table",
        "linear: bad name before an undeclared variable",
        "linear: undeclared variable before a bad name",
        "linear: bad name beside a missing equation",
        "linear: missing equation",
        "linear: duplicate equation",
        "linear: second model line",
        "linear: unknown keyword",
        "linear: trailing comma in a vector",
        "linear: trailing comma in a matrix",
        "linear: ragged matrix",
        "linear: var line without a name",
    ])
    def test_first_error_and_its_message(self, text, error, message):
        with pytest.raises(ScmError) as info:
            parse(text)
        assert type(info.value) is error and str(info.value) == message


class TestSerialization:
    def test_serialized_intervention_reparses(self):
        m = parse((Path(__file__).parent / "corpus" / "ex_product_m.scm").read_text())
        mi = intervene(m, {"X2": 1})
        text = serialize(mi)
        again = parse(text)
        assert mechanisms_equivalent(mi, again)
        assert "eq X2 = 1" in text

    def test_marginal_model_serializes_exactly(self):
        m = parse((Path(__file__).parent / "corpus" / "ex_no_latent_projection.scm").read_text())
        marg = marginalize(m, ["X1", "X2"])
        again = parse(serialize(marg))
        assert mechanisms_equivalent(marg, again)

    def test_table_serialization_uses_guards(self):
        m = zoo.interventional_equiv_m()  # built programmatically: no stored expressions
        text = serialize(m)
        assert "ind(" in text
        assert mechanisms_equivalent(parse(text), m)

    def test_cli_shaped_linear_equation(self):
        m = marginalize(zoo.marginalization_linear(), ["X3", "X4", "X5"])
        text = serialize(m)
        assert "eq X2 = 1*X1 + 1*E2 + 1*E4" in text

    def test_non_numeric_atoms_rejected(self):
        from scmkit import FiniteDomain, TabularMechanism

        dom = FiniteDomain(("yes", "no"))
        m = FiniteScm({"X": dom}, {}, {}, {"X": TabularMechanism.constant("yes")})
        with pytest.raises(ScmError, match="non-numeric"):
            serialize(m)

    def test_exponent_floats_round_trip(self):
        from scmkit import GaussianBlock

        m = LinearScm(("X",), (GaussianBlock("E", ("E",), [1.25e-13], [[3.7e20]]),),
                      [[0.0]], [[2.5e-17]], [-1.4e-9])
        text = serialize(m)
        again = parse(text)
        assert serialize(again) == text
        assert again.Gamma[0, 0] == 2.5e-17
        assert again.c[0] == -1.4e-9

    def test_primed_names_round_trip(self):
        src = "model finite\nvar X'' : {0, 1}\nnoise E' : {0, 1} ~ {0: 1/2, 1: 1/2}\neq X'' = E'\n"
        m = parse(src)
        assert serialize(parse(serialize(m))) == serialize(m)

    def test_intercept_only_equation(self):
        from scmkit import GaussianBlock

        m = LinearScm(("X",), (GaussianBlock("E", ("E",), [0.0], [[1.0]]),),
                      [[0.0]], [[0.0]], [5.0])
        text = serialize(m)
        assert "eq X = 5" in text
        assert serialize(parse(text)) == text


class TestValueLiterals:
    def test_int(self):
        assert parse_value_literal("-3") == -3

    def test_fraction(self):
        assert parse_value_literal("2/3") == F(2, 3)

    def test_decimal(self):
        assert parse_value_literal("0.25") == 0.25

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_value_literal("1 2")


class TestFuzz:
    def test_parser_is_total_on_noise(self):
        rng = random.Random(20240901)
        alphabet = string.ascii_letters + string.digits + "{}()[]:,~=+-*/<>!#'\n\t ."
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            try:
                parse(text)
            except ScmError:
                pass

    def test_parser_is_total_on_mutations(self):
        rng = random.Random(20240902)
        base = (Path(__file__).parent / "corpus" / "ex_augmented.scm").read_text()
        for _ in range(200):
            chars = list(base)
            for _ in range(rng.randint(1, 6)):
                op = rng.random()
                pos = rng.randrange(len(chars))
                if op < 0.4:
                    chars[pos] = rng.choice("{}()=+-*/~:,10abXE\n")
                elif op < 0.7:
                    del chars[pos]
                else:
                    chars.insert(pos, rng.choice("{}()=+-*/~:,10abXE\n"))
            try:
                parse("".join(chars))
            except ScmError:
                pass

    @pytest.mark.parametrize("rhs", [
        " + ".join(["0"] * 1000),
        " + ".join(["0"] * 10000),
        "E" + " - E + E" * 500,
        "*".join(["E"] * 1000),
    ], ids=["sum1000", "sum10000", "signed1001", "product1000"])
    def test_a_long_chain_parses_and_round_trips(self, rhs):
        text = f"model finite\nvar X : {{0, 1}}\nnoise E : {{0, 1}} ~ {{0: 1/2, 1: 1/2}}\neq X = {rhs}\n"
        model = parse(text)
        assert model.expressions["X"] == rhs
        table = dict(model.mechanisms["X"].table)
        assert table in ({(): 0}, {(0,): 0, (1,): 1}, {(0,): 0, (1,): 0})
        assert serialize(model) == text
        assert serialize(parse(serialize(model))) == text

    @pytest.mark.parametrize("depth, ok", [(50, True), (500, False)])
    def test_nesting_depth_is_bounded(self, depth, ok):
        text = "model finite\nvar X : {0, 1}\neq X = " + "(" * depth + "0" + ")" * depth + "\n"
        if ok:
            assert parse(text).expressions["X"] == "0"
        else:
            with pytest.raises(ParseError, match="nested too deeply"):
                parse(text)

    def test_deep_nesting_is_a_diagnostic(self):
        text = "model finite\nvar X : {0, 1}\neq X = " + "(" * 500 + "0" + ")" * 500 + "\n"
        with pytest.raises(ScmError):
            parse(text)
