import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_layering.graph import (
    CycleError,
    Dag,
    Layering,
    d_connected_bits,
    d_separated,
    render_dag,
)
from causal_layering.scm import GeneratorConfig, generate_scm

from bruteforce import ancestors as bf_ancestors
from bruteforce import (
    d_connected,
    d_separated_paths,
    explicit_noise_graph,
    is_layering,
    layering_nodes,
    layering_violations,
    parse_dag,
    parse_layering,
    peel,
    positions,
    random_dag,
    render_layering,
    residual_sinks,
    residual_sources,
    rr,
    select_all,
    sinks_only,
    sources_only,
    take_k_by_label,
)
from bruteforce import descendants as bf_descendants
from bruteforce import sir_layering as bf_sir_layering
from bruteforce import sour_layering as bf_sour_layering


def chain3() -> Dag:
    return Dag.of("ABC", [("A", "B"), ("B", "C")])


def diamond() -> Dag:
    return Dag.of("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])


def collider3() -> Dag:
    return Dag.of("ABC", [("A", "C"), ("B", "C")])


@st.composite
def dags(draw, max_nodes: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    p = draw(st.floats(min_value=0.0, max_value=0.9))
    return random_dag(random.Random(seed), n, p)


class TestDagConstruction:
    def test_of_builds_expected_structure(self):
        g = chain3()
        assert g.nodes == frozenset({0, 1, 2})
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.label(0) == "A" and g.labels.index("C") == 2

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            Dag(["A", "A"])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Dag.of("AB", [("A", "A")])

    def test_rejects_two_cycle(self):
        with pytest.raises(ValueError, match="both directions"):
            Dag.of("AB", [("A", "B"), ("B", "A")])

    def test_rejects_longer_cycle(self):
        with pytest.raises(CycleError):
            Dag.of("ABC", [("A", "B"), ("B", "C"), ("C", "A")])

    def test_rejects_unknown_edge_label(self):
        with pytest.raises(ValueError, match="unknown label"):
            Dag.of("AB", [("A", "Z")])

    def test_empty_graph(self):
        g = Dag([])
        assert len(g) == 0
        assert g.topological_order() == ()

    def test_equality_and_hash(self):
        assert chain3() == chain3()
        assert hash(chain3()) == hash(chain3())
        assert chain3() != diamond()


class TestAccessors:
    def test_parents_children(self):
        g = diamond()
        assert g.parents(g.labels.index("D")) == {g.labels.index("B"), g.labels.index("C")}
        assert g.children(g.labels.index("A")) == {g.labels.index("B"), g.labels.index("C")}

    def test_sources_sinks(self):
        g = diamond()
        assert residual_sources(g, g.nodes) == {0} and residual_sinks(g, g.nodes) == {3}
        assert residual_sources(g, {1, 2, 3}) == {1, 2}
        assert residual_sinks(g, {0, 1, 2}) == {1, 2}

    def test_descendants_exclude_self(self):
        g = chain3()
        assert g.descendants(0) == {1, 2}
        assert g.descendants(2) == frozenset()

    def test_ancestors(self):
        g = diamond()
        assert g.ancestors(g.labels.index("D")) == {0, 1, 2}

    @settings(max_examples=100, deadline=None)
    @given(dags())
    def test_cached_reach_matches_a_fresh_search(self, g: Dag):
        for _ in range(2):  # the second pass reads the cache
            for v in sorted(g.nodes):
                below, above = g.descendants(v), g.ancestors(v)
                assert below == bf_descendants(g, v)
                assert above == bf_ancestors(g, v)
                assert g.descendants(v) is below and g.ancestors(v) is above
        with pytest.raises(ValueError, match="unknown node"):
            g.descendants(len(g.labels))

    @settings(max_examples=100, deadline=None)
    @given(dags())
    def test_components_are_the_skeletons_connected_sets(self, g: Dag):
        comps = g.components()
        sets = [frozenset(v for v in g.nodes if c >> v & 1) for c in comps]
        assert sum(comps) == sum(1 << v for v in g.nodes)  # disjoint, covering
        assert [min(s) for s in sets] == sorted(min(s) for s in sets)
        for s in sets:  # each is everything reachable along edges either way
            linked, stack = set(), [min(s)]
            while stack:
                v = stack.pop()
                if v not in linked:
                    linked.add(v)
                    stack += g.parents(v) | g.children(v)
            assert s == linked
        assert Dag.of("").components() == ()

    def test_unmediated_parents_drops_mediated(self):
        # A -> B -> C plus direct A -> C: among C's parents, A reaches B
        g = Dag.of("ABC", [("A", "B"), ("B", "C"), ("A", "C")])
        assert g.unmediated_parents(g.labels.index("C")) == {g.labels.index("B")}
        assert g.unmediated_parents(g.labels.index("B")) == {g.labels.index("A")}

    def test_topological_order_min_id_ties(self):
        g = Dag.of("ABCD", [("C", "A")])
        assert g.topological_order() == (1, 2, 0, 3)

    @given(dags())
    def test_topological_order_respects_edges(self, g: Dag):
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        assert sorted(order) == sorted(g.nodes)
        assert all(pos[u] < pos[v] for u, v in g.edges)


class TestLayering:
    def test_of_and_accessors(self):
        lay = Layering.of([[0], [1, 2]])
        assert len(lay) == 2
        assert lay[1] == frozenset({1, 2})
        assert layering_nodes(lay) == frozenset({0, 1, 2})
        assert positions(lay) == {0: 0, 1: 1, 2: 1}

    def test_rejects_empty_layer(self):
        with pytest.raises(ValueError, match="non-empty"):
            Layering.of([[0], []])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            Layering.of([[0, 1], [1]])

    def test_violations_missing_and_backward(self):
        g = chain3()
        reasons = layering_violations(g, Layering.of([[1], [0]]))
        assert any("missing nodes: C" in r for r in reasons)
        assert any("A -> B not strictly forward" in r for r in reasons)

    def test_violation_same_layer(self):
        g = chain3()
        reasons = layering_violations(g, Layering.of([[0, 1], [2]]))
        assert reasons == ("edge A -> B not strictly forward (layer 1 vs 1)",)

    def test_violation_unknown_node(self):
        g = chain3()
        reasons = layering_violations(g, Layering.of([[0], [1], [2], [7]]))
        assert any("unknown nodes: 7" in r for r in reasons)

    def test_valid_layering_coarser_than_topological(self):
        g = diamond()
        assert is_layering(g, Layering.of([[0], [1, 2], [3]]))
        assert not is_layering(g, Layering.of([[0], [1, 2, 3]]))


class TestPeeling:
    def test_rr_default_diamond(self):
        lay = rr(diamond())
        assert lay.layers == (frozenset({0}), frozenset({1, 2}), frozenset({3}))

    def test_rr_source_also_sink_goes_front(self):
        # isolated node is both a source and a sink; select_all removes it as a source
        g = Dag.of("AB")
        assert rr(g).layers == (frozenset({0, 1}),)

    def test_rr_empty_graph(self):
        assert rr(Dag([])).layers == ()

    def test_rr_selector_contract_not_subset(self):
        def bad(sources, sinks):
            return frozenset({2}), frozenset()  # C is no source of the chain

        with pytest.raises(ValueError, match="not current sources"):
            rr(chain3(), bad)

    def test_rr_selector_contract_both_empty(self):
        def lazy(sources, sinks):
            return frozenset(), frozenset()

        with pytest.raises(ValueError, match="two empty sets"):
            rr(chain3(), lazy)

    def test_rr_selector_contract_overlap(self):
        def overlapping(sources, sinks):
            both = sources & sinks
            return both, both

        g = Dag.of("A")  # single node is both source and sink
        with pytest.raises(ValueError, match="overlapping"):
            rr(g, overlapping)

    def test_sour_default_is_level_order(self):
        lay = rr(diamond(), sources_only())
        assert lay.layers == (frozenset({0}), frozenset({1, 2}), frozenset({3}))

    def test_sir_builds_from_back(self):
        lay = rr(diamond(), sinks_only())
        assert lay.layers == (frozenset({0}), frozenset({1, 2}), frozenset({3}))

    def test_take_k_by_label_singletons(self):
        g = diamond()
        lay = rr(g, sources_only(take_k_by_label(g, 1)))
        assert lay.layers == tuple(frozenset({v}) for v in (0, 1, 2, 3))

    def test_take_k_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            take_k_by_label(diamond(), 0)

    def test_sour_selector_empty_rejected(self):
        with pytest.raises(ValueError, match="two empty sets"):
            rr(chain3(), sources_only(lambda cands: frozenset()))

    def test_sir_selector_foreign_rejected(self):
        with pytest.raises(ValueError, match="not current sinks"):
            rr(chain3(), sinks_only(lambda cands: frozenset({0})))

    def test_peel_rejects_nodes_already_removed(self):
        with pytest.raises(ValueError, match="not remaining"):
            peel({0, 1}, lambda remaining: ({min(remaining), 2}, ()))

    @given(dags(), st.integers(min_value=0, max_value=3))
    def test_one_direction_selectors_match_the_reference_peeling(self, g: Dag, k: int):
        sel = take_k_by_label(g, k) if k else None
        assert rr(g, sources_only(sel)) == bf_sour_layering(g, sel)
        assert rr(g, sinks_only(sel)) == bf_sir_layering(g, sel)

    @given(dags())
    def test_rr_default_always_valid(self, g: Dag):
        assert is_layering(g, rr(g))

    @given(dags(), st.integers(min_value=1, max_value=3))
    def test_peeling_always_valid_under_any_selector(self, g: Dag, k: int):
        sel = take_k_by_label(g, k)
        for lay in (rr(g, sources_only(sel)), rr(g, sinks_only(sel)),
                    rr(g, sources_only()), rr(g, sinks_only())):
            assert is_layering(g, lay)

    @given(dags(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_rr_random_selector_always_valid(self, g: Dag, seed: int):
        rng = random.Random(seed)

        def pick(sources, sinks):
            sr = frozenset(v for v in sources if rng.random() < 0.5)
            sn = frozenset(v for v in sinks - sources - sr if rng.random() < 0.5)
            if not (sr or sn):
                sr = frozenset({min(sources)})
            return sr, sn

        assert is_layering(g, rr(g, pick))

    @given(dags())
    def test_select_all_parts_are_disjoint(self, g: Dag):
        sources, sinks = residual_sources(g, g.nodes), residual_sinks(g, g.nodes)
        sr, sn = select_all(sources, sinks)
        assert not sr & sn
        assert sr | sn == sources | sinks


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        g = chain3()
        assert not d_separated(g, {0}, {2})
        assert d_separated(g, {0}, {2}, {1})

    def test_collider_opens_when_conditioned(self):
        g = collider3()
        assert d_separated(g, {0}, {1})
        assert not d_separated(g, {0}, {1}, {2})

    def test_collider_opens_via_descendant(self):
        g = Dag.of("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        assert d_separated(g, {0}, {1})
        assert not d_separated(g, {0}, {1}, {3})

    def test_fork_blocked_by_root(self):
        g = Dag.of("ABC", [("C", "A"), ("C", "B")])
        assert not d_separated(g, {0}, {1})
        assert d_separated(g, {0}, {1}, {2})

    def test_requires_nonempty_endpoints(self):
        with pytest.raises(ValueError, match="non-empty"):
            d_separated(chain3(), set(), {1})

    def test_requires_disjoint_sets(self):
        with pytest.raises(ValueError, match="disjoint"):
            d_separated(chain3(), {0}, {1}, {0})

    def test_rejects_unknown_nodes(self):
        with pytest.raises(ValueError, match="unknown node"):
            d_separated(chain3(), {0}, {9})

    @given(dags(max_nodes=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200)
    def test_agrees_with_path_enumeration(self, g: Dag, seed: int):
        rng = random.Random(seed)
        nodes = sorted(g.nodes)
        if len(nodes) < 2:
            return
        x = rng.choice(nodes)
        y = rng.choice([v for v in nodes if v != x])
        rest = [v for v in nodes if v not in (x, y)]
        zs = frozenset(v for v in rest if rng.random() < 0.5)
        fast = d_separated(g, {x}, {y}, zs)
        slow = d_separated_paths(g, frozenset({x}), frozenset({y}), zs)
        assert fast == slow

    @given(dags(max_nodes=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_symmetry(self, g: Dag, seed: int):
        rng = random.Random(seed)
        nodes = sorted(g.nodes)
        if len(nodes) < 2:
            return
        x = rng.choice(nodes)
        y = rng.choice([v for v in nodes if v != x])
        zs = frozenset(v for v in nodes if v not in (x, y) and rng.random() < 0.4)
        assert d_separated(g, {x}, {y}, zs) == d_separated(g, {y}, {x}, zs)

    @given(dags(max_nodes=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200)
    def test_d_connected_agrees_with_path_enumeration(self, g: Dag, seed: int):
        rng = random.Random(seed)
        nodes = sorted(g.nodes)
        x = rng.choice(nodes)
        zs = frozenset(v for v in nodes if v != x and rng.random() < 0.5)
        expected = {
            y for y in nodes
            if y != x and y not in zs
            and not d_separated_paths(g, frozenset({x}), frozenset({y}), zs)
        }
        assert d_connected(g, {x}, zs) == expected

    @given(dags(max_nodes=7), st.integers(min_value=0, max_value=2**32 - 1))
    def test_d_connected_set_is_the_union_of_its_members(self, g: Dag, seed: int):
        rng = random.Random(seed)
        nodes = sorted(g.nodes)
        xs = frozenset(rng.sample(nodes, rng.randint(1, len(nodes))))
        zs = frozenset(v for v in nodes if v not in xs and rng.random() < 0.4)
        union = frozenset().union(*(d_connected(g, {x}, zs) for x in xs))
        assert d_connected(g, xs, zs) == union - xs

    @staticmethod
    def assert_d_connected_matches_path_enumeration(g: Dag, rng: random.Random) -> None:
        nodes = sorted(g.nodes)
        x = rng.choice(nodes)
        zs = frozenset(v for v in nodes if v != x and rng.random() < 0.4)
        expected = {
            y for y in nodes
            if y != x and y not in zs
            and not d_separated_paths(g, frozenset({x}), frozenset({y}), zs)
        }
        assert d_connected(g, {x}, zs) == expected
        assert d_connected_bits(g, 1 << x, sum(1 << v for v in zs)) == sum(1 << y for y in expected)

    @pytest.mark.parametrize("profile", ["base", "sir_faithful"])
    def test_d_connected_on_explicit_noise_graphs(self, profile: str):
        # node ids run up to 2n - 1: every node has a noise parent n + v
        for n in range(1, 6):
            for seed in range(4):
                m = generate_scm(GeneratorConfig(nodes=n, profile=profile, edge_prob=0.5), seed)
                g = explicit_noise_graph(m)
                rng = random.Random(seed)
                for _ in range(6):
                    self.assert_d_connected_matches_path_enumeration(g, rng)

    @given(dags(max_nodes=7))
    def test_bitmasks_equal_parents_and_children(self, g: Dag):
        parent_bits, child_bits = g._bits
        assert len(parent_bits) == len(child_bits) == len(g.labels)
        for v in g.nodes:
            assert parent_bits[v] == sum(1 << p for p in g.parents(v))
            assert child_bits[v] == sum(1 << c for c in g.children(v))

    def test_d_connected_validates_its_sets(self):
        with pytest.raises(ValueError, match="non-empty"):
            d_connected(chain3(), set())
        with pytest.raises(ValueError, match="disjoint"):
            d_connected(chain3(), {0}, {0, 1})
        with pytest.raises(ValueError, match="unknown node"):
            d_connected(chain3(), {0}, {9})


class TestTextFormats:
    def test_dag_round_trip(self):
        g = diamond()
        assert parse_dag(render_dag(g)) == g

    def test_render_dag_shape(self):
        text = render_dag(chain3())
        assert text == "nodes: A, B, C\nedge: A -> B\nedge: B -> C\n"

    def test_parse_dag_rejects_garbage(self):
        with pytest.raises(ValueError, match="nodes"):
            parse_dag("whatever")
        with pytest.raises(ValueError, match="unrecognized"):
            parse_dag("nodes: A\nvertex: A")
        with pytest.raises(ValueError, match="malformed"):
            parse_dag("nodes: A, B\nedge: A B")

    def test_layering_round_trip(self):
        g = diamond()
        lay = rr(g)
        assert parse_layering(render_layering(lay, g), g) == lay

    def test_render_layering_shape(self):
        g = diamond()
        text = render_layering(Layering.of([[0], [1, 2], [3]]), g)
        assert text == "layer 1: A\nlayer 2: B, C\nlayer 3: D\n"

    def test_parse_layering_requires_consecutive_numbers(self):
        g = chain3()
        with pytest.raises(ValueError, match="layer 2"):
            parse_layering("layer 1: A\nlayer 3: B, C\n", g)

    @given(dags())
    def test_round_trips_random(self, g: Dag):
        assert parse_dag(render_dag(g)) == Dag(g.labels, g.edges)
        lay = rr(g, sources_only())
        if len(g) > 0:
            assert parse_layering(render_layering(lay, g), g) == lay
