import itertools
import re

import numpy as np
import pytest

from oracles import RetweetEvent, columns_of, digraph_of, edge_set, label_ids, reachable_labels, weight_of
from swaynet.graph import (
    creator_consumer_partition,
    load_binary,
    reachable_set,
    reverse_reachable_set,
    save_binary,
)


def ev(ts, src, dst, cls="uncertain"):
    cat = {"factual": "SCIENCE", "misleading": "FAKE/HOAX", "uncertain": "NA"}[cls]
    return RetweetEvent(ts, src, dst, cat, cls, 0, 0, False, False, False, False)


def graph_of(*edges):
    return digraph_of(edges)


def graph_in(events, time_range=None, content_class=None):
    columns = columns_of(events)
    return columns.build_graph(columns.event_mask(time_range, content_class))


def reach(g, labels):
    """Labels reachable from `labels`, through the id-space reachable_set."""
    return {g.labels[i] for i in np.flatnonzero(reachable_set(g, label_ids(g.labels, labels)))}


def reach_back(g, labels):
    """Labels reaching `labels`, through the id-space reverse_reachable_set."""
    return {g.labels[i] for i in np.flatnonzero(reverse_reachable_set(g, label_ids(g.labels, labels)))}


def degrees_of(g, label):
    """(k_in, k_out, s_in, s_out) of one node."""
    i = g.labels.index(label)
    return int(g.k_in[i]), int(g.k_out[i]), int(g.s_in[i]), int(g.s_out[i])


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
        g = graph_in(events, (0, 10))
        assert weight_of(g, "A", "B") == 3
        assert g.n_edges == 1

    def test_event_outside_range_excluded(self):
        events = [ev(5, "A", "B"), ev(10, "A", "C")]
        g = graph_in(events, (0, 10))
        assert "C" not in g.labels

    def test_class_filter(self):
        events = [ev(1, "A", "B", "factual"), ev(2, "C", "D", "misleading")]
        g = graph_in(events, content_class="factual")
        assert edge_set(g) == {("A", "B")}

    def test_weight_sum_equals_retained_events(self):
        rng = np.random.default_rng(0)
        events = [
            ev(int(rng.integers(0, 100)), f"u{rng.integers(5)}", f"u{rng.integers(5)}")
            for _ in range(200)
        ]
        g = graph_in(events, (0, 50))
        retained = sum(1 for e in events if 0 <= e.timestamp < 50)
        assert g.total_weight == retained

    def test_empty_range_gives_empty_graph(self):
        g = graph_in([ev(1, "A", "B")], (5, 5))
        assert g.n_nodes == 0 and g.n_edges == 0


class TestDegrees:
    def test_star_hub(self):
        g = graph_of(("h", "a", 98), ("h", "b", 1), ("h", "c", 1))
        assert degrees_of(g, "h") == (0, 3, 0, 100)

    def test_isolated_node_absent(self):
        # Event graphs never have isolated nodes; degree queries on
        # existing nodes with no edges in one direction give zeros.
        g = graph_of(("a", "b", 1))
        assert degrees_of(g, "b") == (1, 0, 1, 0)

    def test_self_loop_counts_both_directions(self):
        g = graph_of(("a", "a", 2))
        assert degrees_of(g, "a") == (1, 1, 2, 2)


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


class TestReachability:
    def test_chain(self):
        g = graph_of(("a", "b", 1), ("b", "c", 1))
        assert reach(g, {"a"}) == {"a", "b", "c"}

    def test_node_reaches_itself(self):
        g = graph_of(("a", "b", 1), ("x", "x", 1))
        assert reach(g, {"x"}) == {"x"}

    def test_sink_of_chain(self):
        g = graph_of(("a", "b", 1), ("b", "c", 1))
        assert reach(g, {"c"}) == {"c"}

    def test_unknown_source_is_error(self):
        g = graph_of(("a", "b", 1))
        for bad in (2, -1):
            with pytest.raises(KeyError):
                reachable_set(g, [bad])

    def test_monotone_in_sources_and_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g, _ = random_graph(rng)
            labels = list(g.labels)
            small = set(labels[:1])
            big = set(labels[:2])
            r_small = reach(g, small)
            r_big = reach(g, big)
            assert r_small <= r_big
            assert reach(g, r_small) == r_small  # closed sets are fixed points

    def test_reverse_reachability_consistent(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g, _ = random_graph(rng)
            target = g.labels[0]
            upstream = reach_back(g, {target})
            for node in g.labels:
                assert (node in upstream) == (target in reach(g, {node}))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g, _ = random_graph(rng)
            sources = set(g.labels[:2])
            assert reach(g, sources) == brute_reachable(edge_set(g), set(g.labels), sources)

    def test_reverse_matches_brute_force_on_reversed_edges(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g, _ = random_graph(rng, p=float(rng.uniform(0.05, 0.4)))
            reversed_edges = {(d, s) for s, d in edge_set(g)}
            targets = set(rng.choice(g.labels, size=int(rng.integers(1, 4))))
            assert reach_back(g, targets) == brute_reachable(reversed_edges, set(g.labels), targets)

    def test_long_chain_both_directions(self):
        n = 5000
        g = graph_of(*((f"v{i}", f"v{i + 1}", 1) for i in range(n - 1)))
        assert reach(g, {"v0"}) == set(g.labels)
        assert reach(g, {f"v{n - 10}"}) == {f"v{i}" for i in range(n - 10, n)}
        assert reach_back(g, {f"v{n - 1}"}) == set(g.labels)
        assert reach_back(g, {"v9"}) == {f"v{i}" for i in range(10)}

    def test_wide_star(self):
        leaves = [f"leaf{i}" for i in range(3000)]
        g = graph_of(*(("hub", leaf, 1) for leaf in leaves), ("leaf7", "tail", 1))
        assert reach(g, {"hub"}) == set(g.labels)
        assert reach(g, {"leaf7"}) == {"leaf7", "tail"}
        assert reach_back(g, {"tail"}) == {"tail", "leaf7", "hub"}
        assert reach_back(g, {"hub"}) == {"hub"}

    def test_self_loops_and_repeated_or_overlapping_starts(self):
        g = graph_of(("a", "a", 1), ("a", "b", 1), ("b", "b", 2), ("b", "c", 1), ("d", "d", 1))
        assert reach(g, ["a", "a", "b"]) == {"a", "b", "c"}
        assert reach(g, ["c", "b", "c"]) == {"b", "c"}
        assert reach(g, ["d"]) == {"d"}
        assert reach_back(g, ["c", "c", "a"]) == {"a", "b", "c"}
        assert reach_back(g, ["d", "d"]) == {"d"}
        assert reach(g, []) == set() == reach_back(g, [])

    def test_unknown_target_is_error_naming_the_role(self):
        g = graph_of(("a", "b", 1))
        with pytest.raises(KeyError, match="unknown target node: 7"):
            reverse_reachable_set(g, [0, 7])
        with pytest.raises(KeyError, match="unknown source node: -2"):
            reachable_set(g, [-2])

    def test_matches_label_oracle_with_self_loops_and_reciprocal_edges(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            g, _ = random_graph(rng, p=float(rng.uniform(0.05, 0.5)))
            pairs = edge_set(g)
            extra = [(s, s, 1) for s in list(g.labels)[:2]] + [(d, s, 2) for s, d in sorted(pairs)[:3]]
            g = graph_of(*((s, d, 1) for s, d in pairs), *extra)
            starts = set(rng.choice(g.labels, size=int(rng.integers(0, 4))))
            assert reach(g, starts) == reachable_labels(g, starts)
            assert reach_back(g, starts) == reachable_labels(g, starts, reverse=True)


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        g = graph_of(("a", "b", 3), ("b", "c", 1), ("c", "a", 23000), ("a", "a", 2))
        path = str(tmp_path / "graph.bin")
        with open(path, "wb") as fh:
            save_binary(g, fh)
        g2 = load_binary(path)
        assert g2.labels == g.labels
        assert list(g2.edges()) == list(g.edges())

    @pytest.mark.parametrize("cut", ["padded-24", "cut-13", "cut-16", "cut-into-labels", "empty"])
    def test_truncated_or_padded_file_rejected(self, tmp_path, cut):
        g = graph_of(("a", "b", 3), ("b", "c", 1), ("c", "a", 23000), ("a", "a", 2))
        path = str(tmp_path / "graph.bin")
        with open(path, "wb") as fh:
            save_binary(g, fh)
        with open(path, "rb") as fh:
            data = fh.read()
        data = {
            "padded-24": data + bytes(24),
            "cut-13": data[:-13],
            "cut-16": data[:-16],  # two whole weights short, which a short read would not notice
            "cut-into-labels": data[:30],
            "empty": b"",
        }[cut]
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(ValueError, match=re.escape(path)):
            load_binary(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as fh:
            fh.write(b"nope" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_binary(path)
