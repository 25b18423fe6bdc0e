import io
import itertools

import numpy as np
import pytest

from oracles import RetweetEvent, columns_of
from swaynet.graph import (
    WeightedDigraph,
    creator_consumer_partition,
    load_binary,
    node_degrees,
    reachable_set,
    reverse_reachable_set,
    save_binary,
    strongly_connected_components,
    write_edges_csv,
)


def ev(ts, src, dst, cls="uncertain"):
    cat = {"factual": "SCIENCE", "misleading": "FAKE/HOAX", "uncertain": "NA"}[cls]
    return RetweetEvent(ts, src, dst, cat, cls, 0, 0, False, False, False, False)


def graph_of(*edges):
    return WeightedDigraph.from_weighted_edges(list(edges))


# -- oracles -------------------------------------------------------------------


def brute_reachable(edges: set[tuple[str, str]], nodes: set[str], sources: set[str]) -> set[str]:
    reached = set(sources)
    changed = True
    while changed:
        changed = False
        for s, d in edges:
            if s in reached and d not in reached:
                reached.add(d)
                changed = True
    return reached


def brute_sccs(edges: set[tuple[str, str]], nodes: set[str]) -> set[frozenset[str]]:
    # Pairwise mutual reachability.
    reach = {n: brute_reachable(edges, nodes, {n}) for n in nodes}
    comps = set()
    for n in nodes:
        comps.add(frozenset(m for m in nodes if m in reach[n] and n in reach[m]))
    return comps


def random_graph(rng: np.random.Generator, max_nodes=12, p=0.25):
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for s, d in itertools.product(range(n), range(n)):
        if rng.random() < p:
            edges.append((nodes[s], nodes[d], int(rng.integers(1, 10))))
    if not edges:
        edges = [(nodes[0], nodes[1 % n], 1)]
    return graph_of(*edges), {n_ for n_ in nodes if any(n_ in e[:2] for e in edges)}


class TestBuildNetwork:
    def test_repeat_events_aggregate_weight(self):
        events = [ev(t, "A", "B") for t in (1, 2, 3)]
        g = columns_of(events).build_graph(time_range=(0, 10))
        assert g.weight_of("A", "B") == 3
        assert g.n_edges == 1

    def test_event_outside_range_excluded(self):
        events = [ev(5, "A", "B"), ev(10, "A", "C")]
        g = columns_of(events).build_graph(time_range=(0, 10))
        assert "C" not in g

    def test_class_filter(self):
        events = [ev(1, "A", "B", "factual"), ev(2, "C", "D", "misleading")]
        g = columns_of(events).build_graph(content_class="factual")
        assert g.edge_set() == {("A", "B")}

    def test_weight_sum_equals_retained_events(self):
        rng = np.random.default_rng(0)
        events = [
            ev(int(rng.integers(0, 100)), f"u{rng.integers(5)}", f"u{rng.integers(5)}")
            for _ in range(200)
        ]
        g = columns_of(events).build_graph(time_range=(0, 50))
        retained = sum(1 for e in events if 0 <= e.timestamp < 50)
        assert g.total_weight == retained

    def test_empty_range_gives_empty_graph(self):
        g = columns_of([ev(1, "A", "B")]).build_graph(time_range=(5, 5))
        assert g.n_nodes == 0 and g.n_edges == 0


class TestDegrees:
    def test_star_hub(self):
        g = graph_of(("h", "a", 98), ("h", "b", 1), ("h", "c", 1))
        d = node_degrees(g)
        assert d.of("h") == (0, 3, 0, 100)

    def test_isolated_node_absent(self):
        # Event graphs never have isolated nodes; degree queries on
        # existing nodes with no edges in one direction give zeros.
        g = graph_of(("a", "b", 1))
        assert node_degrees(g).of("b") == (1, 0, 1, 0)

    def test_self_loop_counts_both_directions(self):
        g = graph_of(("a", "a", 2))
        assert node_degrees(g).of("a") == (1, 1, 2, 2)


class TestPartition:
    def test_chain(self):
        g = graph_of(("a", "b", 1), ("b", "c", 1))
        part = creator_consumer_partition(g)
        assert part.creators_only == {"a"}
        assert part.both == {"b"}
        assert part.consumers_only == {"c"}

    def test_two_cycle_all_both(self):
        g = graph_of(("a", "b", 1), ("b", "a", 1))
        part = creator_consumer_partition(g)
        assert part.both == {"a", "b"}
        assert not part.creators_only and not part.consumers_only

    def test_cross_fraction(self):
        g = graph_of(("a", "b", 7), ("c", "d", 3))
        part = creator_consumer_partition(g)
        assert part.cross_weight_fractions[("creators_only", "consumers_only")] == pytest.approx(1.0)
        g2 = graph_of(("a", "b", 7), ("b", "c", 3))
        part2 = creator_consumer_partition(g2)
        assert part2.cross_weight_fractions[("creators_only", "both")] == pytest.approx(0.7)

    def test_sets_disjoint_and_cover(self):
        g, nodes = random_graph(np.random.default_rng(3))
        part = creator_consumer_partition(g)
        groups = [part.creators_only, part.consumers_only, part.both]
        assert sum(len(s) for s in groups) == g.n_nodes
        assert set().union(*groups) == set(g.labels)


class TestSCC:
    def test_directed_triangle_single_component(self):
        g = graph_of(("a", "b", 1), ("b", "c", 1), ("c", "a", 1))
        comps = strongly_connected_components(g)
        assert comps == [frozenset({"a", "b", "c"})]

    def test_dag_gives_singletons(self):
        g = graph_of(("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("c", "d", 1))
        comps = strongly_connected_components(g)
        assert all(len(c) == 1 for c in comps)
        assert len(comps) == 4

    def test_two_cycles_one_way_bridge(self):
        g = graph_of(
            ("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
            ("x", "y", 1), ("y", "z", 1), ("z", "x", 1),
            ("a", "x", 1),
        )
        comps = strongly_connected_components(g)
        expected = brute_sccs(g.edge_set(), set(g.labels))
        assert set(comps) == expected
        assert sorted(len(c) for c in comps) == [3, 3]

    def test_sorted_by_size_descending(self):
        g = graph_of(("a", "b", 1), ("b", "a", 1), ("c", "c", 1), ("d", "e", 1))
        comps = strongly_connected_components(g)
        sizes = [len(c) for c in comps]
        assert sizes == sorted(sizes, reverse=True)

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            g, _ = random_graph(rng)
            assert set(strongly_connected_components(g)) == brute_sccs(g.edge_set(), set(g.labels))

    def test_contracted_components_form_dag(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g, _ = random_graph(rng)
            comps = strongly_connected_components(g)
            comp_of = {n: i for i, c in enumerate(comps) for n in c}
            contracted = {(comp_of[s], comp_of[d]) for s, d in g.edge_set() if comp_of[s] != comp_of[d]}
            # A DAG has no mutual reachability between distinct contracted nodes.
            reach = {i: brute_reachable(contracted, set(comp_of.values()), {i}) for i in set(comp_of.values())}
            for i, j in contracted:
                assert i not in reach[j] or j not in reach[i] or i == j


class TestReachability:
    def test_chain(self):
        g = graph_of(("a", "b", 1), ("b", "c", 1))
        assert reachable_set(g, {"a"}) == {"a", "b", "c"}

    def test_node_reaches_itself(self):
        g = graph_of(("a", "b", 1), ("x", "x", 1))
        assert reachable_set(g, {"x"}) == {"x"}

    def test_sink_of_chain(self):
        g = graph_of(("a", "b", 1), ("b", "c", 1))
        assert reachable_set(g, {"c"}) == {"c"}

    def test_unknown_source_is_error(self):
        g = graph_of(("a", "b", 1))
        with pytest.raises(KeyError):
            reachable_set(g, {"zzz"})

    def test_monotone_in_sources_and_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g, _ = random_graph(rng)
            labels = list(g.labels)
            small = set(labels[:1])
            big = set(labels[:2])
            r_small = reachable_set(g, small)
            r_big = reachable_set(g, big)
            assert r_small <= r_big
            assert reachable_set(g, r_small) == r_small  # closed sets are fixed points

    def test_reverse_reachability_consistent(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g, _ = random_graph(rng)
            target = g.labels[0]
            upstream = reverse_reachable_set(g, {target})
            for node in g.labels:
                assert (node in upstream) == (target in reachable_set(g, {node}))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g, _ = random_graph(rng)
            sources = set(g.labels[:2])
            assert reachable_set(g, sources) == brute_reachable(g.edge_set(), set(g.labels), sources)

    def test_reverse_matches_brute_force_on_reversed_edges(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g, _ = random_graph(rng, p=float(rng.uniform(0.05, 0.4)))
            reversed_edges = {(d, s) for s, d in g.edge_set()}
            targets = set(rng.choice(g.labels, size=int(rng.integers(1, 4))))
            assert reverse_reachable_set(g, targets) == brute_reachable(reversed_edges, set(g.labels), targets)

    def test_long_chain_both_directions(self):
        n = 5000
        g = graph_of(*((f"v{i}", f"v{i + 1}", 1) for i in range(n - 1)))
        assert reachable_set(g, {"v0"}) == set(g.labels)
        assert reachable_set(g, {f"v{n - 10}"}) == {f"v{i}" for i in range(n - 10, n)}
        assert reverse_reachable_set(g, {f"v{n - 1}"}) == set(g.labels)
        assert reverse_reachable_set(g, {"v9"}) == {f"v{i}" for i in range(10)}

    def test_wide_star(self):
        leaves = [f"leaf{i}" for i in range(3000)]
        g = graph_of(*(("hub", leaf, 1) for leaf in leaves), ("leaf7", "tail", 1))
        assert reachable_set(g, {"hub"}) == set(g.labels)
        assert reachable_set(g, {"leaf7"}) == {"leaf7", "tail"}
        assert reverse_reachable_set(g, {"tail"}) == {"tail", "leaf7", "hub"}
        assert reverse_reachable_set(g, {"hub"}) == {"hub"}

    def test_self_loops_and_repeated_or_overlapping_starts(self):
        g = graph_of(("a", "a", 1), ("a", "b", 1), ("b", "b", 2), ("b", "c", 1), ("d", "d", 1))
        assert reachable_set(g, ["a", "a", "b"]) == {"a", "b", "c"}
        assert reachable_set(g, ["c", "b", "c"]) == {"b", "c"}
        assert reachable_set(g, ["d"]) == {"d"}
        assert reverse_reachable_set(g, ["c", "c", "a"]) == {"a", "b", "c"}
        assert reverse_reachable_set(g, ["d", "d"]) == {"d"}
        assert reachable_set(g, []) == set() == reverse_reachable_set(g, [])

    def test_unknown_target_is_error_naming_the_role(self):
        g = graph_of(("a", "b", 1))
        with pytest.raises(KeyError, match="unknown target node: 'zzz'"):
            reverse_reachable_set(g, ["a", "zzz"])
        with pytest.raises(KeyError, match="unknown source node: 'zzz'"):
            reachable_set(g, ["zzz"])


class TestSerialization:
    def test_binary_roundtrip(self):
        g = graph_of(("a", "b", 3), ("b", "c", 1), ("c", "a", 23000), ("a", "a", 2))
        path = "/tmp/swaynet_test_graph.bin"
        save_binary(g, path)
        g2 = load_binary(path)
        assert g2.labels == g.labels
        assert list(g2.edges()) == list(g.edges())

    def test_bad_magic_rejected(self):
        path = "/tmp/swaynet_test_bad.bin"
        with open(path, "wb") as fh:
            fh.write(b"nope" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_binary(path)

    def test_csv_export(self):
        g = graph_of(("a", "b", 3))
        buf = io.StringIO()
        write_edges_csv(g, buf)
        assert buf.getvalue() == "src,dst,weight\na,b,3\n"
