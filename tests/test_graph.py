import copy
import itertools
import pickle
import random

import pytest

from scmkit import (
    MixedGraph,
    ScmError,
    UnknownNameError,
    d_separated,
    enumerate_loops,
    intervene_graph,
    latent_projection,
    relatives,
    sigma_separated,
)
from scmkit.graph import _paths_between, strong_components


def augmented_endo_graph():
    """The endogenous part of the five-variable graph-extraction example."""
    return MixedGraph(
        ["X1", "X2", "X3", "X4", "X5"],
        [("X1", "X3"), ("X2", "X3"), ("X2", "X4"), ("X3", "X5"), ("X5", "X3"),
         ("X4", "X5"), ("X4", "X4")],
    )


def cycle4():
    return MixedGraph(
        ["X1", "X2", "X3", "X4"],
        [("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X4", "X1")],
    )


class TestRelatives:
    def test_isolated_node_is_own_ancestor(self):
        g = MixedGraph(["a", "b"])
        assert g.ancestors_of(["a"]) == {"a"}
        assert relatives(g, ["a"], "ancestors") == {"a"}

    def test_ancestors_in_cyclic_graph(self):
        g = augmented_endo_graph()
        assert g.ancestors_of(["X5"]) == {"X1", "X2", "X3", "X4", "X5"}

    def test_parents_with_self_loop(self):
        g = augmented_endo_graph()
        assert g.parents_of(["X4"]) == {"X2", "X4"}

    def test_children_and_descendants(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert g.children_of(["a"]) == {"b"}
        assert g.descendants_of(["a"]) == {"a", "b", "c"}

    def test_union_over_seed_set(self):
        g = MixedGraph(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert g.parents_of(["c"]) == {"a", "b"}
        assert g.ancestors_of(["a", "b"]) == {"a", "b"}

    def test_unknown_node(self):
        g = MixedGraph(["a"])
        with pytest.raises(UnknownNameError):
            g.ancestors_of(["zzz"])

    def test_unknown_relative_kind(self):
        g = MixedGraph(["a"])
        with pytest.raises(ScmError):
            relatives(g, ["a"], "cousins")

    def test_monotone_in_edges(self):
        small = MixedGraph(["a", "b", "c"], [("a", "b")])
        big = MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert small.descendants_of(["a"]) <= big.descendants_of(["a"])


class TestScc:
    def test_isolated(self):
        g = MixedGraph(["a"])
        assert g.scc_of("a") == {"a"}

    def test_four_cycle(self):
        assert cycle4().scc_of("X1") == {"X1", "X2", "X3", "X4"}

    def test_chain_midpoint(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert g.scc_of("b") == {"b"}

    def test_components_match_reachability_in_topological_order(self):
        rng = random.Random(5)
        for trial in range(200):
            nodes = [f"n{i}" for i in range(rng.randint(1, 8))]
            g = MixedGraph(nodes, [(u, v) for u in nodes for v in nodes if rng.random() < 0.25])
            comps = g.components()
            assert sorted(n for c in comps for n in c) == sorted(nodes)
            position = {}
            for i, c in enumerate(comps):
                assert list(c) == [n for n in nodes if n in c]
                for n in c:
                    assert set(c) == g.ancestors_of(n) & g.descendants_of(n)
                    position[n] = i
            for u, v in g.directed:
                assert position[u] <= position[v]

    def test_order_does_not_depend_on_the_order_of_the_neighbours(self):
        # roots in node order, then neighbours in node order: c's parents
        # come out before c, and the unrelated b after them
        preds = {"c": ["a", "d"], "b": [], "a": [], "d": []}
        expected = [("a",), ("d",), ("c",), ("b",)]
        assert strong_components(["c", "b", "a", "d"], preds) == expected
        preds["c"].reverse()
        assert strong_components(["c", "b", "a", "d"], preds) == expected

    def test_edges_leaving_the_node_list_are_ignored(self):
        step = {"a": {"b", "x"}, "b": {"a"}, "x": {"a"}}
        assert strong_components(["a", "b"], step) == [("a", "b")]
        assert strong_components(["a", "x", "b"], step) == [("a", "x", "b")]

    def test_a_long_cycle_needs_no_recursion(self):
        nodes = [f"n{i}" for i in range(5000)]
        step = {n: [nodes[i - 1]] for i, n in enumerate(nodes)}
        assert strong_components(nodes, step) == [tuple(nodes)]
        step["n0"] = []
        assert len(strong_components(nodes, step)) == 5000


class TestMalformedEdges:
    @pytest.mark.parametrize("directed, bidirected", [
        ([("a", "b", "c")], ()),
        ([("a",)], ()),
        (["ab"], ()),
        ([5], ()),
        ((), [("a",)]),
        ((), [("a", "b", "c")]),
    ])
    def test_an_edge_that_is_not_a_pair_is_rejected(self, directed, bidirected):
        with pytest.raises(ScmError, match="is not a pair of nodes"):
            MixedGraph(["a", "b", "c"], directed, bidirected)

    def test_malformed_json_edges_are_model_errors(self):
        for edges in ('"directed": [["a", "b", "c"]]', '"bidirected": [["a"]]', '"directed": ["ab"]',
                      '"directed": [{"a": 1, "b": 2}]', '"bidirected": [{"a": 1, "c": 2}]',
                      '"directed": "ab"', '"bidirected": {"a": "b"}'):
            with pytest.raises(ScmError):
                MixedGraph.from_json('{"nodes": ["a", "b", "c"], %s}' % edges)

    @pytest.mark.parametrize("text", ['{"nodes": "abc"}', '{"nodes": "abc", "directed": [["a", "b"]]}',
                                      '{"nodes": {"a": 1, "b": 2}}', '["a", "b"]', '"abc"'])
    def test_json_containers_must_be_arrays(self, text):
        with pytest.raises(ScmError, match="malformed graph JSON"):
            MixedGraph.from_json(text)


class TestAcyclicity:
    def test_chain(self):
        assert MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")]).is_acyclic()

    def test_self_loop_is_a_cycle(self):
        assert not MixedGraph(["a"], [("a", "a")]).is_acyclic()

    def test_example_graph_is_cyclic(self):
        assert not augmented_endo_graph().is_acyclic()


class TestIntervene:
    def test_empty_targets(self):
        g = augmented_endo_graph()
        assert intervene_graph(g, []) == g

    def test_removes_incoming_edges_only(self):
        g = MixedGraph(
            ["X1", "X2", "X3"],
            [("X1", "X2"), ("X2", "X1"), ("X3", "X2"), ("X1", "X3")],
        )
        cut = intervene_graph(g, ["X3"])
        assert ("X1", "X3") not in cut.directed
        assert ("X3", "X2") in cut.directed

    def test_removes_self_loop_on_target(self):
        g = MixedGraph(["a"], [("a", "a")])
        assert intervene_graph(g, ["a"]).directed == frozenset()

    def test_idempotent(self):
        g = augmented_endo_graph()
        once = intervene_graph(g, ["X3"])
        assert intervene_graph(once, ["X3"]) == once

    def test_disjoint_targets_commute(self):
        g = augmented_endo_graph()
        ab = intervene_graph(intervene_graph(g, ["X3"]), ["X4"])
        ba = intervene_graph(intervene_graph(g, ["X4"]), ["X3"])
        assert ab == ba

    def test_preserves_acyclicity(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert intervene_graph(g, ["b"]).is_acyclic()

    def test_removes_bidirected_at_target(self):
        g = MixedGraph(["a", "b"], [], [("a", "b")])
        assert intervene_graph(g, ["a"]).bidirected == frozenset()


class TestLatentProjection:
    def test_empty_latent(self):
        g = MixedGraph(["a", "b"], [("a", "b")])
        assert latent_projection(g, []) == g

    def test_triangle(self):
        g = MixedGraph(["X1", "X2", "X3"], [("X1", "X3"), ("X3", "X2"), ("X1", "X2")])
        assert latent_projection(g, ["X3"]) == MixedGraph(["X1", "X2"], [("X1", "X2")])

    def test_latent_self_loop_does_not_block(self):
        g = MixedGraph(["a", "l", "b"], [("a", "l"), ("l", "l"), ("l", "b")])
        assert latent_projection(g, ["l"]) == MixedGraph(["a", "b"], [("a", "b")])

    def test_can_create_self_loop(self):
        g = MixedGraph(["a", "l"], [("a", "l"), ("l", "a")])
        assert latent_projection(g, ["l"]).directed == {("a", "a")}

    def test_rejects_bidirected(self):
        g = MixedGraph(["a", "b"], [], [("a", "b")])
        with pytest.raises(ScmError):
            latent_projection(g, ["a"])

    def test_composition_on_all_small_graphs(self):
        # brute force over all directed graphs on 3 nodes, split latents 2 ways
        nodes = ["a", "b", "c", "d"]
        pairs = [(u, v) for u in nodes[:3] for v in nodes[:3]]
        for bits in range(2 ** len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            g = MixedGraph(nodes[:3], edges)
            one = latent_projection(latent_projection(g, ["a"]), ["b"])
            both = latent_projection(g, ["a", "b"])
            assert one == both


def brute_force_loops(g: MixedGraph):
    out = set()
    for r in range(1, len(g.nodes) + 1):
        for subset in itertools.combinations(g.nodes, r):
            sub = g.induced(subset)
            if all(
                sub.descendants_of([i]) >= set(subset)
                for i in subset
            ):
                # strongly connected: every node reaches every other inside
                out.add(frozenset(subset))
    return out


class TestLoops:
    def test_chain(self):
        g = MixedGraph(["a", "b"], [("a", "b")])
        assert enumerate_loops(g) == {frozenset(["a"]), frozenset(["b"])}

    def test_two_cycle_matches_brute_force(self):
        g = MixedGraph(["a", "b"], [("a", "b"), ("b", "a")])
        assert enumerate_loops(g) == brute_force_loops(g)
        assert frozenset(["a", "b"]) in enumerate_loops(g)

    def test_four_cycle_has_no_proper_subloop(self):
        g = cycle4()
        loops = enumerate_loops(g)
        assert loops == brute_force_loops(g)
        expected = {frozenset([n]) for n in g.nodes} | {frozenset(g.nodes)}
        assert loops == expected

    def test_bound(self):
        g = MixedGraph([f"n{i}" for i in range(17)])
        with pytest.raises(ScmError, match=r"17 nodes, over the cap max_nodes=16$"):
            enumerate_loops(g)
        with pytest.raises(ScmError, match=r"over the cap max_nodes=5$"):
            enumerate_loops(g.induced([f"n{i}" for i in range(6)]), max_nodes=5)


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert d_separated(g, ["a"], ["c"], ["b"])
        assert not d_separated(g, ["a"], ["c"], [])

    def test_four_cycle_d_separates(self):
        assert d_separated(cycle4(), ["X1"], ["X3"], ["X2", "X4"])

    def test_collider_blocks_without_conditioning(self):
        g = MixedGraph(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert d_separated(g, ["a"], ["b"], [])
        assert not d_separated(g, ["a"], ["b"], ["c"])

    def test_endpoint_in_conditioning_set_blocks(self):
        g = MixedGraph(["a", "b"], [("a", "b")])
        assert d_separated(g, ["a"], ["b"], ["a"])

    def test_bidirected_collider(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b")], [("b", "c")])
        # a -> b <-> c: b is a collider
        assert d_separated(g, ["a"], ["c"], [])
        assert not d_separated(g, ["a"], ["c"], ["b"])


class TestSigmaSeparation:
    def test_chain(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert sigma_separated(g, ["a"], ["c"], ["b"])

    def test_four_cycle_not_sigma_separated(self):
        assert not sigma_separated(cycle4(), ["X1"], ["X3"], ["X2", "X4"])

    def test_cycle_with_outgoing_edge(self):
        # conditioning node pointing outside its strongly connected component blocks
        g = MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert sigma_separated(g, ["a"], ["c"], ["b"])

    def test_overlapping_sets_need_conditioning(self):
        g = MixedGraph(["a", "b"])
        assert not sigma_separated(g, ["a"], ["a"], [])
        assert sigma_separated(g, ["a"], ["a"], ["a"])


class TestSerialization:
    def test_json_round_trip(self):
        g = augmented_endo_graph()
        assert MixedGraph.from_json(g.to_json()) == g

    def test_json_sorted(self):
        g = MixedGraph(["b", "a"], [("b", "a")])
        obj = g.to_json_obj()
        assert obj["nodes"] == ["a", "b"]

    def test_dot_output(self):
        g = MixedGraph(["a", "b"], [("a", "b")], [("a", "b")])
        dot = g.to_dot()
        assert '"a" -> "b";' in dot
        assert '"a" -> "b" [dir=both];' in dot

    def test_value_equality_ignores_node_order(self):
        assert MixedGraph(["a", "b"], [("a", "b")]) == MixedGraph(["b", "a"], [("a", "b")])


def all_separations(g) -> list:
    """Every sigma- and d-verdict for singletons a, b and S of at most two nodes."""
    out = []
    for a, b in itertools.combinations(sorted(g.nodes), 2):
        rest = [n for n in sorted(g.nodes) if n not in (a, b)]
        for s in (c for r in range(3) for c in itertools.combinations(rest, r)):
            out.append((a, b, s, sigma_separated(g, [a], [b], s), d_separated(g, [a], [b], s)))
    return out


class TestDerivedStructures:
    """Neighbour lists, components and the SCC map are built on first use and
    kept in the graph's slots; none of that may show in a verdict, in the path
    order, or in equality, hashing, copies and pickles."""

    def test_edge_order_changes_no_answer_and_no_path_order(self):
        rng = random.Random(41)
        for trial in range(40):
            nodes = [f"v{i}" for i in range(4 + trial % 3)]
            directed = [(u, v) for u in nodes for v in nodes if rng.random() < 0.3]
            bidirected = [(u, v) for u, v in itertools.combinations(nodes, 2) if rng.random() < 0.2]
            g = MixedGraph(nodes, directed, bidirected)
            shuffled = [list(directed), [(v, u) for u, v in bidirected]]
            for edges in shuffled:
                rng.shuffle(edges)
            h = MixedGraph(rng.sample(nodes, len(nodes)), *shuffled)
            assert g == h
            assert all_separations(g) == all_separations(h)
            for a in nodes[:2]:
                sinks = frozenset(nodes) - {a}
                assert list(_paths_between(g, frozenset([a]), sinks)) == list(_paths_between(h, frozenset([a]), sinks))

    def test_queries_leave_equality_hash_copy_and_pickle_unchanged(self):
        g = augmented_endo_graph()
        before = (hash(g), pickle.dumps(g), copy.copy(g), copy.deepcopy(g))
        assert g._adj is None and g._scc is None
        verdicts = all_separations(g)
        g.components()
        assert g._adj is not None and g._scc is not None
        assert (hash(g), pickle.dumps(g)) == before[:2]
        assert g == before[2] == before[3] == pickle.loads(before[1])
        for other in (copy.copy(g), pickle.loads(pickle.dumps(g))):
            assert other == g and hash(other) == hash(g)
            assert other._adj is None
            assert all_separations(other) == verdicts

    def test_slots_cannot_be_assigned_from_outside(self):
        g = cycle4()
        verdicts = all_separations(g)
        for name in ("_adj", "_scc", "_scc_of", "_pa", "_nodes", "_directed"):
            with pytest.raises(AttributeError):
                setattr(g, name, {})
        with pytest.raises(TypeError):
            g.scc_map()["X1"] = frozenset()
        assert all_separations(g) == verdicts
        assert not sigma_separated(g, ["X1"], ["X3"], ["X2", "X4"])
