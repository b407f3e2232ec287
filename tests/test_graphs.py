import sys
import tracemalloc

import pytest

from cordial import (
    Digraph,
    Graph,
    Orientation,
    SymmetryMode,
    VertexLabeling,
    alternating_path,
    complete_graph,
    counterexample_tree,
    is_cordial,
    is_orientable,
    make_graph,
    max_edges,
    named,
    noncordial_orientations,
    orient,
    parse_text,
    path_graph,
    petersen_graph,
    reverse,
    tight_bound_graph,
    to_text,
    tournament_survey,
)
from cordial.search import SearchReport


def bfs_connected(g):
    if g.vertex_count <= 1:
        return True
    adj = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count


class TestMakeGraph:
    def test_canonicalizes_pair_order(self):
        g = make_graph(2, [(1, 0)])
        assert g.edges == ((0, 1),)

    def test_idempotent_reingestion(self):
        g = petersen_graph()
        assert make_graph(g.vertex_count, g.edges) == g

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            make_graph(3, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            make_graph(2, [(0, 2)])
        with pytest.raises(ValueError, match="range"):
            make_graph(2, [(-1, 1)])

    def test_direct_construction_requires_canonical_order(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (0, 1)))
        with pytest.raises(ValueError):
            Graph(3, ((1, 0),))


class TestDigraph:
    def test_digon_rejected(self):
        with pytest.raises(ValueError, match="digon"):
            Digraph(2, ((0, 1), (1, 0)))

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Digraph(2, ((0, 1), (0, 1)))

    def test_loop_arc_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Digraph(2, ((1, 1),))

    def test_reverse_involution(self):
        d = alternating_path(10)
        assert reverse(reverse(d)) == d

    def test_reverse_swaps_endpoints(self):
        assert reverse(Digraph(2, ((0, 1),))).arcs == ((1, 0),)
        r = reverse(alternating_path(10))
        assert r.arcs[:3] == ((1, 0), (1, 2), (3, 2))


class TestOrientation:
    def test_all_forward_path(self):
        g = path_graph(4)
        assert orient(g, Orientation(g, 0)).arcs == ((0, 1), (1, 2), (2, 3))

    def test_bit_pattern_matches_alternating_path(self):
        g = path_graph(10)
        o = Orientation.from_bit_string(g, "010101010")
        assert o.bits == 170
        assert orient(g, o) == alternating_path(10)

    def test_bit_string_round_trip(self):
        g = path_graph(5)
        for bits in range(16):
            o = Orientation(g, bits)
            assert Orientation.from_bit_string(g, o.bit_string()) == o

    def test_wrong_length_bits_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            Orientation(g, 8)
        with pytest.raises(ValueError):
            Orientation.from_bit_string(g, "0101")

    def test_mismatched_graph_rejected(self):
        o = Orientation(path_graph(4), 0)
        with pytest.raises(ValueError):
            orient(path_graph(5), o)

    def test_every_edge_becomes_exactly_one_arc(self):
        g = petersen_graph()
        for bits in (0, 170, (1 << 15) - 1, 0b101010101010101):
            d = orient(g, Orientation(g, bits))
            undirected = {tuple(sorted(a)) for a in d.arcs}
            assert undirected == set(g.edges)
            assert d.arc_count == g.edge_count

    def test_repeated_orient_and_reverse_leave_no_blocks(self):
        # Arc tuples built from a generator end on another length's free
        # list, about one retained block per call up to 2000 per length.
        g, d = path_graph(8), alternating_path(8)
        before = sys.getallocatedblocks()
        for bits in range(3000):
            orient(g, Orientation(g, bits % 128))
            reverse(d)
        assert sys.getallocatedblocks() - before < 200

    @pytest.mark.parametrize(
        "build",
        [
            lambda: path_graph(9),
            lambda: complete_graph(6),
            lambda: alternating_path(12),
            lambda: VertexLabeling(13, 0b1011001110001).labels(),
        ],
        ids=["path_graph", "complete_graph", "alternating_path", "labels"],
    )
    def test_repeated_builders_leave_no_blocks(self, build):
        # Each builds tuples of its own length, so no other test's calls
        # have filled that length's free list.
        before = sys.getallocatedblocks()
        for _ in range(3000):
            build()
        assert sys.getallocatedblocks() - before < 200


class TestVertexLabeling:
    def test_from_ones_and_labels(self):
        a = VertexLabeling.from_ones(4, [1, 3])
        b = VertexLabeling.from_labels((0, 1, 0, 1))
        assert a == b
        assert a.labels() == (0, 1, 0, 1)
        assert a.bit_string() == "0101"

    def test_complement(self):
        lab = VertexLabeling.from_ones(3, [0])
        assert lab.complement().ones == frozenset({1, 2})
        assert lab.complement().complement() == lab

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            VertexLabeling(3, 8)

    def test_bad_label_value(self):
        with pytest.raises(ValueError):
            VertexLabeling.from_labels((0, 2))

    def test_kept_labelings_are_small(self):
        # Slotted, a labeling of 60 vertices costs its object, its mask
        # and a list slot, about 90 bytes; with a __dict__ it was 131.
        tracemalloc.start()
        try:
            kept = [VertexLabeling(60, 1 << 59 | i) for i in range(2000)]
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size / len(kept) < 110

    def test_kept_orientations_are_small(self):
        # Slotted, an orientation over bits that exist already costs its
        # object and a tuple slot, about 56 bytes (Petersen's 2^14
        # failures: 0.88 MB); with a __dict__ it was about 96 (1.50 MB).
        g = petersen_graph()
        bits = list(range(1 << 14, (1 << 14) + 2000))
        tracemalloc.start()
        try:
            kept = tuple(Orientation(g, b) for b in bits)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size / len(kept) < 75

    @pytest.mark.parametrize(
        "report",
        [
            lambda: is_cordial(alternating_path(4)),
            lambda: is_orientable(path_graph(4)),
            lambda: noncordial_orientations(path_graph(4)),
            lambda: tournament_survey(3),
        ],
        ids=["LabelingReport", "OrientabilityWitness", "SearchReport", "TournamentSurvey"],
    )
    def test_reports_are_slotted(self, report):
        rep = report()
        assert "__slots__" in type(rep).__dict__
        assert not hasattr(rep, "__dict__")

    def test_kept_search_reports_are_small(self):
        # Slotted, a census report over fields that exist already costs
        # its object and a list slot, 80 bytes; with a __dict__ it was
        # 113-158 (Python 3.10-3.12).
        g = path_graph(14)
        tracemalloc.start()
        try:
            kept = [SearchReport(g, 8192, 0, SymmetryMode.BOTH, 0.5) for _ in range(2000)]
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size / len(kept) < 100


class TestNamedGraphs:
    def test_petersen_is_cubic_with_15_edges(self):
        g = petersen_graph()
        assert g.vertex_count == 10
        assert g.edge_count == 15
        assert set(g.degrees()) == {3}

    def test_counterexample_tree_shape(self):
        g = counterexample_tree()
        assert g.vertex_count == 10
        assert g.edge_count == 9
        assert bfs_connected(g)
        assert sorted(g.degrees()).count(3) == 4
        assert max(g.degrees()) == 3

    def test_alternating_path_arc_list(self):
        d = alternating_path(10)
        assert d.arcs == (
            (0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7), (8, 7), (8, 9),
        )

    @pytest.mark.parametrize("n", [4, 6, 10, 22])
    def test_alternating_path_degrees(self, n):
        d = alternating_path(n)
        out_deg = d.out_degrees()
        in_deg = d.in_degrees()
        sources = [v for v in range(n) if out_deg[v] >= 1]
        assert sources == list(range(0, n - 1, 2))
        assert len(sources) == (n - 1 + 1) // 2
        # interior odd vertices are sinks of in-degree 2, the endpoint is not
        for v in range(1, n - 2, 2):
            assert in_deg[v] == 2
        assert in_deg[n - 1] == 1

    def test_alternating_path_odd_rejected(self):
        with pytest.raises(ValueError):
            alternating_path(7)

    def test_path_and_complete_sizes(self):
        assert path_graph(10).edge_count == 9
        assert complete_graph(4).edge_count == 6
        assert complete_graph(1).edge_count == 0

    @pytest.mark.parametrize("n", range(3, 13))
    def test_tight_bound_edge_count_hits_max(self, n):
        assert tight_bound_graph(n).edge_count == max_edges(n)

    def test_tight_bound_contains_full_bipartite_part(self):
        g = tight_bound_graph(6)
        cross = {(u, v) for u in range(3) for v in range(3, 6)}
        assert cross <= set(g.edges)
        assert g.edge_count == 14

    def test_named_dispatch(self):
        assert named("petersen") == petersen_graph()
        assert named("path", 4) == path_graph(4)
        assert named("alternating_path", 10) == alternating_path(10)
        assert named("tight_bound", 6) == tight_bound_graph(6)

    def test_named_errors(self):
        with pytest.raises(ValueError, match="unknown"):
            named("snark")
        with pytest.raises(ValueError, match="requires"):
            named("path")
        with pytest.raises(ValueError, match="does not take"):
            named("petersen", 10)
        with pytest.raises(ValueError):
            named("alternating_path", 7)


class TestTextFormat:
    def test_graph_round_trip(self):
        for g in (petersen_graph(), path_graph(4), Graph(3, ())):
            assert parse_text(to_text(g)) == g

    def test_digraph_round_trip(self):
        d = alternating_path(10)
        assert parse_text(to_text(d)) == d

    def test_comments_and_blank_lines_skipped(self):
        text = "# a path\n\n3 2\n0 1\n# middle\n1 2\n"
        assert parse_text(text) == path_graph(3)

    def test_arc_lines(self):
        assert parse_text("2 1\n0 > 1\n") == Digraph(2, ((0, 1),))

    def test_mixed_lines_rejected(self):
        with pytest.raises(ValueError, match="mixes"):
            parse_text("3 2\n0 1\n1 > 2\n")

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError, match="expected 2"):
            parse_text("3 2\n0 1\n")

    def test_bad_tokens_rejected(self):
        with pytest.raises(ValueError):
            parse_text("2 1\n0 x\n")
        with pytest.raises(ValueError):
            parse_text("2 1\n0 < 1\n")
        with pytest.raises(ValueError, match="empty"):
            parse_text("# nothing\n")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Graph(-1), ValueError, "vertex_count must be nonnegative"),
        (lambda: Graph(2, ((0, 0),)), ValueError, "loop edge (0,0)"),
        (lambda: Graph(3, ((0, 1), (0, 1))), ValueError, "duplicate edge (0,1)"),
        pytest.param(
            lambda: make_graph(3, [(0, 1), (1, 0)]),
            ValueError,
            "duplicate edge (0,1)",
            id="make_graph-duplicate-edge",
        ),
        (lambda: Digraph(-1), ValueError, "vertex_count must be nonnegative"),
        (lambda: Digraph(2, ((0, 2),)), ValueError, "arc (0,2) endpoint out of range for n=2"),
        (lambda: path_graph(0), ValueError, "path needs at least 1 vertex"),
        (lambda: complete_graph(0), ValueError, "complete graph needs at least 1 vertex"),
        (lambda: tight_bound_graph(2), ValueError, "tight bound construction needs n >= 3"),
        (lambda: parse_text("3\n"), ValueError, "first line must be 'n m'"),
        (lambda: to_text(1), TypeError, "cannot serialize int"),
    ],
)
def test_error_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
