import json
from pathlib import Path

import pytest

from scmkit import parse, serialize
from scmkit.cli import run

CORPUS = Path(__file__).parent / "corpus"


def corpus(name: str) -> str:
    return str(CORPUS / name)


class TestParseCommand:
    def test_echoes_canonical_form(self, capsys):
        assert run(["parse", corpus("ex_product_m.scm")]) == 0
        out = capsys.readouterr().out
        assert out == serialize(parse((CORPUS / "ex_product_m.scm").read_text()))

    def test_bad_file_is_usage_error(self, capsys):
        assert run(["parse", corpus("missing.scm")]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.scm"
        bad.write_text("model finite\nvar X : {0, 1}\neq X = Y\n")
        assert run(["parse", str(bad)]) == 2
        assert "3:" in capsys.readouterr().err


class TestGraphCommand:
    def test_json_graph(self, capsys):
        assert run(["graph", corpus("ex_augmented.scm"), "--kind", "functional"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert ["X1", "X2"] in obj["bidirected"]

    def test_dot_graph(self, capsys):
        assert run(["graph", corpus("ex_chain.scm"), "--format", "dot"]) == 0
        assert '"X1" -> "X2";' in capsys.readouterr().out

    def test_causal_graph_with_context(self, capsys):
        assert run([
            "graph", corpus("ex_chain.scm"), "--kind", "causal", "--context", "X1,X3",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["directed"] == [["X1", "X3"]]

    def test_an_unknown_context_name_is_a_model_error(self, capsys):
        assert run(["graph", corpus("ex_direct_cause_biased.scm"), "--kind", "causal", "--context", "Zzz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Zzz" in captured.err

    @pytest.mark.parametrize("names", ["", ","])
    def test_an_empty_context_is_a_usage_error(self, names, capsys):
        # an empty list is not an absent option: it must not fall back to the full causal graph
        assert run(["graph", corpus("ex_chain.scm"), "--kind", "causal", "--context", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scmkit: error: --context names no variable; expected a comma-separated subset\n"


class TestTransformCommands:
    def test_intervene_then_check(self, tmp_path, capsys):
        out = tmp_path / "intervened.scm"
        assert run(["intervene", corpus("ex_interventions.scm"), "--set", "X3=1", "-o", str(out)]) == 0
        assert run(["check", str(out), "--solvable", "X1,X2,X3"]) == 1
        assert run(["check", corpus("ex_interventions.scm"), "--solvable", "X1,X2,X3"]) == 0

    def test_unwritable_output_is_a_model_error(self, tmp_path, capsys):
        # one error line and exit 2, not a traceback and the false-verdict code 1
        out = tmp_path / "missing" / "x.scm"
        assert run(["intervene", corpus("ex_chain.scm"), "--set", "X1=1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scmkit: error: cannot write {out}") and err.count("\n") == 1

    def test_marginalize_emits_expected_equation(self, capsys):
        assert run(["marginalize", corpus("ex_marginalization.scm"), "--over", "X3,X4,X5"]) == 0
        text = capsys.readouterr().out
        assert "eq X2 = 1*X1 + 1*E2 + 1*E4" in text

    @pytest.mark.parametrize("names", ["", " , "])
    def test_marginalize_over_an_empty_list_is_a_usage_error(self, names, capsys):
        # an empty list is not a marginal of nothing: it must not echo the model
        assert run(["marginalize", corpus("ex_chain.scm"), "--over", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scmkit: error: --over names no variable; expected a comma-separated subset\n"

    def test_twin_and_extend_round_trip(self, tmp_path):
        out = tmp_path / "twin.scm"
        assert run(["twin", corpus("ex_product_m.scm"), "-o", str(out)]) == 0
        assert "X2'" in out.read_text()
        assert run(["extend", corpus("ex_latent_confounder.scm"), "-o", str(out)]) == 0
        assert "E1'" in out.read_text()

    def test_check_structural_and_all_subsets(self):
        assert run(["check", corpus("ex_nonunique_selfloop_tilde.scm"), "--structural"]) == 1
        assert run(["check", corpus("ex_chain.scm"), "--structural"]) == 0
        assert run(["check", corpus("ex_cycle4.scm"), "--all-subsets"]) == 0
        assert run(["check", corpus("ex_unique_ancestral.scm"), "--all-subsets"]) == 1

    def test_check_unique(self):
        assert run(["check", corpus("ex_unique_ancestral.scm"), "--unique", "X1,X2"]) == 0
        assert run(["check", corpus("ex_unique_ancestral.scm"), "--unique", "X2"]) == 1

    @pytest.mark.parametrize("option", ["--solvable", "--unique"])
    @pytest.mark.parametrize("names", ["", " ", ",", " , "])
    def test_check_with_an_empty_subset_is_a_usage_error(self, option, names, capsys):
        # an empty list is not an absent option: it must not fall through to --all-subsets
        assert run(["check", corpus("ex_chain.scm"), option, names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"scmkit: error: {option} names no variable; expected a comma-separated subset\n"


class TestDistCommands:
    def test_observational_distribution(self, capsys):
        assert run(["dist", corpus("ex_product_m.scm")]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["vars"] == ["X1", "X2"]
        assert ["-1,-1", "1/4"] in obj["probs"]

    def test_interventional_distribution(self, capsys):
        assert run(["dist", corpus("ex_product_m.scm"), "--do", "X1=1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert ["1,-1", "1/2"] in obj["probs"]

    def test_unsolvable_is_model_error(self, capsys):
        assert run(["dist", corpus("ex_interventions.scm"), "--do", "X3=1"]) == 2
        assert "NotSolvable" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, where", [
        (["noise E : Normal(1e999, 1)", "eq X = E"], "3:18"),
        (["noise E : Normal(0, 1)", "noise F : Normal(0, 1)", "eq X = E", "eq Y = 1e999*X + F"], "6:8"),
    ])
    def test_a_number_beyond_the_float_range_is_a_parse_error(self, capsys, tmp_path, lines, where):
        path = tmp_path / "big.scm"
        path.write_text("\n".join(["model linear", "var X Y" if len(lines) > 2 else "var X", *lines]) + "\n")
        assert run(["dist", str(path)]) == 2
        assert capsys.readouterr().err == f"scmkit: error: {where}: number beyond the float range\n"

    def test_gaussian_distribution(self, capsys):
        assert run(["dist", corpus("ex_lingauss.scm")]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["cov"][0][0] == pytest.approx(9 / 5)

    def test_polytope(self, tmp_path, capsys):
        out = tmp_path / "sq.scm"
        assert run(["intervene", corpus("ex_square_root.scm"), "--set", "X2=2", "-o", str(out)]) == 0
        assert run(["polytope", str(out)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["vertices"]) == 2

    def test_counterfactual(self, capsys):
        assert run([
            "counterfactual", corpus("ex_product_m.scm"),
            "--factual-do", "X1=-1", "--observe", "X2=1",
            "--cf-do", "X1=1", "--query", "X2'",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["probs"] == [["-1", "1"]]

    def test_unknown_query_name_is_a_model_error(self, capsys):
        for name in ("ex_lingauss.scm", "ex_product_m.scm"):
            assert run(["counterfactual", corpus(name), "--query", "ZZ'"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("scmkit: error: unknown coordinates") and err.count("\n") == 1, err

    @pytest.mark.parametrize("name", ["ex_product_m.scm", "ex_lingauss.scm"])
    @pytest.mark.parametrize("names", ["", " , "])
    def test_an_empty_query_is_a_usage_error(self, name, names, capsys):
        # an empty query is not a query of nothing: it must not print the empty law
        assert run(["counterfactual", corpus(name), "--query", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scmkit: error: --query names no variable; expected a comma-separated subset\n"

    @pytest.mark.parametrize("name", ["ex_product_m.scm", "ex_lingauss.scm"])
    def test_a_repeated_query_name_is_a_model_error(self, name, capsys):
        # a law over two copies of one coordinate is not a law of the query
        assert run(["counterfactual", corpus(name), "--query", "X1',X1'"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scmkit: error: coordinate \"X1'\" named twice\n"

    def test_counterfactual_gaussian(self, capsys):
        assert run([
            "counterfactual", corpus("ex_lingauss.scm"),
            "--factual-do", "X1=0", "--observe", "X2=1",
            "--cf-do", "X1=1", "--query", "X2'",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["mean"][0] == pytest.approx(1 / 3 + 1.0, abs=1e-9)


class TestMalformedValues:
    @pytest.mark.parametrize("file", ["ex_chain.scm", "ex_lingauss.scm"])
    @pytest.mark.parametrize("argv", [
        ["intervene", "--set"],
        ["dist", "--do"],
        ["counterfactual", "--query", "X2'", "--observe"],
        ["counterfactual", "--query", "X2'", "--cf-do"],
    ])
    @pytest.mark.parametrize("raw", ["", "abc", "1/", "1 2"])
    def test_names_the_assignment_not_a_position(self, capsys, file, argv, raw):
        assert run([argv[0], corpus(file), *argv[1:], f"X1={raw}"]) == 2
        err = capsys.readouterr().err
        assert err == (f"scmkit: error: malformed value {raw!r} in X1={raw}; "
                       "expected an integer, p/q or decimal\n")


class TestSepCommand:
    def test_graph_json_input(self, tmp_path, capsys):
        from scmkit import MixedGraph

        g = MixedGraph(["X1", "X2", "X3", "X4"],
                       [("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X4", "X1")])
        path = tmp_path / "cycle4.json"
        path.write_text(g.to_json())
        assert run(["sep", "--graph", str(path), "--a", "X1", "--b", "X3",
                    "--given", "X2,X4", "--kind", "d"]) == 0
        assert run(["sep", "--graph", str(path), "--a", "X1", "--b", "X3",
                    "--given", "X2,X4", "--kind", "sigma"]) == 1

    def test_model_input_uses_functional_graph(self):
        assert run(["sep", corpus("ex_chain.scm"), "--a", "X1", "--b", "X3",
                    "--given", "X2", "--kind", "sigma"]) == 0

    def test_a_missing_graph_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert run(["sep", "--graph", str(path), "--a", "a", "--b", "b"]) == 2
        assert capsys.readouterr().err.startswith(f"scmkit: error: cannot read {path}: ")

    def test_needs_exactly_one_input(self, capsys):
        assert run(["sep", "--a", "X1", "--b", "X2", "--kind", "d"]) == 2

    @pytest.mark.parametrize("edges", ['"directed": [["a", "b", "c"]]', '"bidirected": [["a"]]'])
    def test_malformed_edge_is_a_model_error(self, tmp_path, capsys, edges):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": ["a", "b", "c"], %s}' % edges)
        assert run(["sep", "--graph", str(path), "--a", "a", "--b", "b"]) == 2
        assert "is not a pair of nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"nodes": "abc", "directed": [["a", "b"]]}',
                                      '{"nodes": ["a", "b"], "directed": [{"a": 1, "b": 2}]}'])
    def test_container_that_is_not_an_array_is_a_model_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run(["sep", "--graph", str(path), "--a", "a", "--b", "b"]) == 2
        assert "malformed graph JSON" in capsys.readouterr().err


class TestMarkovCommand:
    def test_table_output(self, capsys):
        assert run(["markov", corpus("ex_chain.scm"), "--kind", "sigma"]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_negative_max_cond_is_a_usage_error(self, capsys):
        assert run(["markov", corpus("ex_cycle4.scm"), "--max-cond", "-1"]) == 2
        captured = capsys.readouterr()
        assert "max_conditioning" in captured.err and "violations" not in captured.out

    def test_json_output(self, capsys):
        assert run(["markov", corpus("ex_cycle4.scm"), "--kind", "sigma",
                    "--max-cond", "2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["violations"] == 0


class TestEquivCommand:
    def test_levels(self, capsys):
        m = corpus("ex_product_m.scm")
        t = corpus("ex_product_tilde.scm")
        assert run(["equiv", m, t, "--level", "obs"]) == 0
        assert run(["equiv", m, t, "--level", "int"]) == 0
        capsys.readouterr()
        assert run(["equiv", m, t, "--level", "cf"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] is False
        assert obj["rule"] == "single_law"
        assert obj["witness"]

    def test_wrt_margin(self):
        m = corpus("ex_square_root.scm")
        t = corpus("ex_square_root_tilde.scm")
        assert run(["equiv", m, t, "--level", "int", "--wrt", "X1"]) == 0
        assert run(["equiv", m, t, "--level", "int"]) == 1

    @pytest.mark.parametrize("names", ["", ","])
    def test_an_empty_margin_is_a_usage_error(self, names, capsys):
        # an empty list is not an absent option: it must not fall back to the shared variables
        m = corpus("ex_product_m.scm")
        assert run(["equiv", m, corpus("ex_product_tilde.scm"), "--level", "int", "--wrt", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scmkit: error: --wrt names no variable; expected a comma-separated subset\n"

    def test_linear_equiv(self, capsys):
        a = corpus("ex_lingauss.scm")
        b = corpus("ex_lingauss_tilde.scm")
        assert run(["equiv", a, b, "--level", "obs"]) == 0
        assert json.loads(capsys.readouterr().out)["rule"] == "linear_per_variable"
        assert run(["equiv", a, b, "--level", "int"]) == 1
        assert run(["equiv", a, a, "--level", "cf"]) == 0
        capsys.readouterr()
        assert run(["equiv", a, b, "--level", "cf"]) == 1
        assert json.loads(capsys.readouterr().out)["witness"]["intervention"] == ["X1"]


class TestThinAdapter:
    def test_dist_matches_library(self, capsys):
        from scmkit import observational_distribution

        assert run(["dist", corpus("ex_product_m.scm")]) == 0
        obj = json.loads(capsys.readouterr().out)
        model = parse((CORPUS / "ex_product_m.scm").read_text())
        assert obj == observational_distribution(model).to_json_obj()

    def test_graph_matches_library(self, capsys):
        from scmkit import augmented_graph

        assert run(["graph", corpus("ex_augmented.scm"), "--kind", "augmented"]) == 0
        obj = json.loads(capsys.readouterr().out)
        model = parse((CORPUS / "ex_augmented.scm").read_text())
        assert obj == augmented_graph(model).to_json_obj()

    def test_sep_matches_library(self, capsys):
        from scmkit import functional_graph, sigma_separated

        model = parse((CORPUS / "ex_chain.scm").read_text())
        expected = sigma_separated(functional_graph(model), ["X1"], ["X3"], ["X2"])
        code = run(["sep", corpus("ex_chain.scm"), "--a", "X1", "--b", "X3",
                    "--given", "X2", "--kind", "sigma"])
        assert (code == 0) == expected


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["parse", "--frobnicate"]) == 2

    def test_chain_with_a_large_gain(self, tmp_path, capsys):
        # variables in different units: every acyclic model is uniquely solvable
        path = tmp_path / "chain.scm"
        path.write_text("model linear\nvar X1 X2\nnoise E1 : Normal(0, 1)\nnoise E2 : Normal(0, 1)\n"
                        "eq X1 = 100000*X2 + E1\neq X2 = E2\n")
        assert run(["check", str(path), "--unique", "X1,X2"]) == 0
        assert run(["dist", str(path)]) == 0
        assert json.loads(capsys.readouterr().out.split("\n", 1)[1])["cov"][0][0] == pytest.approx(1e10 + 1)

    def test_tolerance_env_var(self, capsys, monkeypatch):
        # a huge tolerance declares I - B singular even for the base model
        monkeypatch.setenv("SCMKIT_TOLERANCE", "10.0")
        assert run(["check", corpus("ex_interventions.scm"), "--unique", "X1,X2,X3"]) == 1
        monkeypatch.delenv("SCMKIT_TOLERANCE")
        assert run(["check", corpus("ex_interventions.scm"), "--unique", "X1,X2,X3"]) == 0
