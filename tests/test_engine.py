import gc
import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cordial import (
    Digraph,
    GammaTriple,
    Graph,
    LabelingReport,
    Orientation,
    VertexLabeling,
    alternating_path,
    arc_label,
    complete_graph,
    construct_witness_orientation,
    counterexample_tree,
    engine,
    friendly_labelings,
    gamma_triple,
    is_balanced_triple,
    is_cordial,
    is_friendly,
    is_orientable,
    lambda_count,
    make_graph,
    max_edges,
    orient,
    path_graph,
    petersen_graph,
    reverse,
    search,
    tight_bound_graph,
)


def all_labelings(n):
    for mask in range(1 << n):
        yield VertexLabeling(n, mask)


class TestArcLabel:
    def test_values(self):
        assert arc_label(0, 1) == 1
        assert arc_label(1, 1) == 0
        assert arc_label(1, 0) == -1


class TestGammaTriple:
    def test_short_directed_path(self):
        d = Digraph(3, ((0, 1), (1, 2)))
        lab = VertexLabeling.from_labels((0, 1, 0))
        assert gamma_triple(d, lab) == (1, 1, 0)

    def test_constant_labeling_gives_all_zero_arcs(self):
        d = alternating_path(10)
        assert gamma_triple(d, VertexLabeling(10, 0)) == (0, 0, 9)

    def test_alternating_ones_on_even_positions(self):
        d = alternating_path(10)
        lab = VertexLabeling.from_ones(10, [0, 2, 4, 6, 8])
        assert gamma_triple(d, lab) == (0, 9, 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            gamma_triple(Digraph(3, ()), VertexLabeling(2, 0))

    def test_components_sum_to_arc_count(self):
        d = alternating_path(8)
        for lab in all_labelings(8):
            assert sum(gamma_triple(d, lab)) == d.arc_count


class TestPredicates:
    def test_friendly(self):
        assert is_friendly(VertexLabeling.from_ones(10, range(5)))
        assert not is_friendly(VertexLabeling.from_ones(10, range(4)))
        assert is_friendly(VertexLabeling.from_ones(5, range(3)))
        assert is_friendly(VertexLabeling(1, 0))

    def test_balanced_triple(self):
        assert is_balanced_triple(GammaTriple(3, 3, 3))
        assert is_balanced_triple(GammaTriple(5, 4, 5))
        assert not is_balanced_triple(GammaTriple(4, 2, 3))
        assert is_balanced_triple(GammaTriple(0, 0, 0))


class TestScanTables:
    @pytest.mark.parametrize("m", range(91))
    def test_balanced_is_the_triple_filter(self, m):
        expected = {}
        for alpha in range(m + 1):
            for beta in range(m + 1 - alpha):
                if is_balanced_triple((alpha, beta, m - alpha - beta)):
                    expected.setdefault(alpha + beta, set()).add(alpha)
        assert engine._balanced(m) == expected

    @pytest.mark.parametrize("n", range(19))
    def test_pinned_labelings_counts_what_the_kernel_yields(self, n):
        leaves = engine._sliced_leaves(n, (), False, True)
        yielded = sum(friendly.bit_count() for _, friendly, _ in leaves)
        assert engine._pinned_labelings(n) == yielded


class TestIsCordial:
    def test_single_arc(self):
        report = is_cordial(Digraph(2, ((0, 1),)))
        assert report is not None
        assert report.labeling.labels() == (0, 1)
        assert report.gamma == (1, 0, 0)

    def test_directed_p4_first_witness(self):
        report = is_cordial(Digraph(4, ((0, 1), (1, 2), (2, 3))))
        assert report is not None
        assert report.labeling.labels() == (0, 1, 1, 0)
        assert report.gamma == (1, 1, 1)

    def test_alternating_p10_not_cordial(self):
        assert is_cordial(alternating_path(10)) is None

    def test_empty_digraph_is_cordial(self):
        report = is_cordial(Digraph(3, ()))
        assert report is not None
        assert report.gamma == (0, 0, 0)

    def test_agrees_with_reversal(self):
        g = path_graph(6)
        for bits in range(1 << 5):
            d = orient(g, Orientation(g, bits))
            assert (is_cordial(d) is None) == (is_cordial(reverse(d)) is None)


class TestLambdaCount:
    def test_p4_example(self):
        lab = VertexLabeling.from_labels((1, 0, 0, 1))
        assert lambda_count(path_graph(4), lab) == 1

    def test_p6_example(self):
        lab = VertexLabeling.from_labels((1, 1, 0, 0, 1, 0))
        assert lambda_count(path_graph(6), lab) == 2

    def test_k6_every_friendly_labeling_gives_six(self):
        g = complete_graph(6)
        for ones in itertools.combinations(range(6), 3):
            lab = VertexLabeling.from_ones(6, ones)
            assert lambda_count(g, lab) == 6

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            lambda_count(path_graph(3), VertexLabeling(4, 0))

    def test_equals_gamma_zero_for_every_orientation(self):
        g = path_graph(4)
        for bits in range(8):
            d = orient(g, Orientation(g, bits))
            for lab in all_labelings(4):
                assert gamma_triple(d, lab).gamma_zero == lambda_count(g, lab)


class TestGammaSymmetries:
    def test_exhaustive_on_small_paths(self):
        g = path_graph(4)
        for bits in range(8):
            d = orient(g, Orientation(g, bits))
            for lab in all_labelings(4):
                a, b, z = gamma_triple(d, lab)
                assert gamma_triple(reverse(d), lab) == (b, a, z)
                assert gamma_triple(d, lab.complement()) == (b, a, z)
                assert gamma_triple(reverse(d), lab.complement()) == (a, b, z)


class TestIsOrientable:
    def test_p6_has_witness(self):
        w = is_orientable(path_graph(6))
        assert w is not None
        assert is_friendly(w.labeling)
        gam = gamma_triple(orient(path_graph(6), w.orientation), w.labeling)
        assert gam == w.gamma
        assert is_balanced_triple(gam)
        assert lambda_count(path_graph(6), w.labeling) in (1, 2)

    def test_counterexample_tree_empty(self):
        assert is_orientable(counterexample_tree()) is None

    def test_petersen_empty(self):
        assert is_orientable(petersen_graph()) is None

    def test_single_vertex(self):
        w = is_orientable(Graph(1, ()))
        assert w is not None
        assert w.gamma == (0, 0, 0)


class TestConstructWitness:
    def test_p4_mixed_labeling(self):
        g = path_graph(4)
        lab = VertexLabeling.from_labels((1, 0, 0, 1))
        o = construct_witness_orientation(g, lab)
        assert o.bit_string() == "101"
        assert gamma_triple(orient(g, o), lab) == (1, 1, 1)

    def test_p6_example_split(self):
        g = path_graph(6)
        lab = VertexLabeling.from_labels((1, 1, 0, 0, 1, 0))
        o = construct_witness_orientation(g, lab)
        gam = gamma_triple(orient(g, o), lab)
        assert gam == (2, 1, 2)
        assert is_balanced_triple(gam)

    def test_rejects_unfriendly_labeling(self):
        with pytest.raises(ValueError, match="friendly"):
            construct_witness_orientation(path_graph(4), VertexLabeling(4, 0))

    def test_rejects_lambda_outside_window(self):
        lab = VertexLabeling.from_labels((1, 0, 1, 0))
        with pytest.raises(ValueError, match="window"):
            construct_witness_orientation(path_graph(4), lab)

    def test_always_balanced_when_window_holds(self):
        # every graph on <= 4 vertices, every friendly labeling in the window
        for n in range(1, 5):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for gbits in range(1 << len(pairs)):
                g = Graph(n, tuple(p for j, p in enumerate(pairs) if gbits >> j & 1))
                m = g.edge_count
                for lab in all_labelings(n):
                    if not is_friendly(lab):
                        continue
                    if lambda_count(g, lab) not in (m // 3, (m + 2) // 3):
                        continue
                    o = construct_witness_orientation(g, lab)
                    gam = gamma_triple(orient(g, o), lab)
                    assert is_balanced_triple(gam)
                    mprime = m - lambda_count(g, lab)
                    assert gam == ((mprime + 1) // 2, mprime // 2, m - mprime)


class TestOrientabilityWitness:
    # Under 0110, P4's edges are bichromatic, monochromatic, bichromatic;
    # all forward they give the balanced (1, 1, 1), with edge 0 reversed
    # (0, 2, 1).
    @pytest.mark.parametrize(
        "mask, bits, gamma, message",
        [
            (0b0111, 0, (1, 1, 1), "witness labeling is not friendly"),
            (0b0110, 0, (3, 0, 0), "witness gamma is not balanced"),
            (0b0110, 1, (1, 1, 1), "witness gamma does not match its orientation"),
        ],
    )
    def test_rejects(self, mask, bits, gamma, message):
        g = path_graph(4)
        with pytest.raises(ValueError) as info:
            engine.OrientabilityWitness(
                VertexLabeling(4, mask), Orientation(g, bits), GammaTriple(*gamma)
            )
        assert str(info.value) == message


class TestLabelingReport:
    def test_inconsistent_verdict_rejected(self):
        lab = VertexLabeling.from_labels((0, 1))
        with pytest.raises(ValueError):
            LabelingReport(labeling=lab, verdict=False, gamma=GammaTriple(1, 0, 0))

    def test_consistent_report_accepted(self):
        lab = VertexLabeling.from_labels((0, 1))
        report = LabelingReport(labeling=lab, verdict=True, gamma=GammaTriple(1, 0, 0))
        assert report.verdict


@st.composite
def digraphs(draw, max_n=11):
    """Digon-free digraphs on 1..max_n vertices, from empty to near-tournaments."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    spread = draw(st.integers(2, 8))
    picks = draw(
        st.lists(st.integers(0, spread), min_size=len(pairs), max_size=len(pairs))
    )
    arcs = [(u, v) if p == 1 else (v, u) for (u, v), p in zip(pairs, picks) if p in (1, 2)]
    return Digraph(n, tuple(arcs))


def pinned_friendly(n):
    """Reference enumeration: filter every mask, keep vertex 0 labeled 0."""
    labelings = (VertexLabeling(n, mask) for mask in range(1 << n))
    return (lab for lab in labelings if not lab.mask & 1 and is_friendly(lab))


def first_cordial_mask(d):
    return next(
        (lab.mask for lab in pinned_friendly(d.vertex_count)
         if is_balanced_triple(gamma_triple(d, lab))),
        None,
    )


def first_window_mask(g):
    m = g.edge_count
    return next(
        (lab.mask for lab in pinned_friendly(g.vertex_count)
         if lambda_count(g, lab) in (m // 3, (m + 2) // 3)),
        None,
    )


def witness_mask(report):
    return None if report is None else report.labeling.mask


def scan_mask(n, pairs, directed):
    return engine._scan_first_mask(n, pairs, directed)


def transitive_tournament(n):
    return Digraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


class TestKernelAgainstMaskFilter:
    """The sliced kernel against a filter over all 2^n masks.

    The kernel is called directly, so no input can reach the frontier DP.
    """

    @given(digraphs())
    @settings(max_examples=200, deadline=None)
    def test_is_cordial_witness_is_first_balanced_mask(self, d):
        assert scan_mask(d.vertex_count, d.arcs, True) == first_cordial_mask(d)

    @given(digraphs())
    @settings(max_examples=200, deadline=None)
    def test_is_orientable_witness_is_first_window_mask(self, d):
        g = make_graph(d.vertex_count, d.arcs)
        assert scan_mask(g.vertex_count, g.edges, False) == first_window_mask(g)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_zero_edges_and_tournaments(self, n):
        empty = Digraph(n, ())
        assert scan_mask(n, (), True) == first_cordial_mask(empty)
        assert scan_mask(n, (), False) == first_window_mask(Graph(n, ()))
        d = transitive_tournament(n)
        assert scan_mask(n, d.arcs, True) == first_cordial_mask(d)
        g = complete_graph(n)
        assert scan_mask(n, g.edges, False) == first_window_mask(g)

    # From n = 16 free (17 pinned) the kernel yields several leaves.
    @pytest.mark.parametrize("n", range(1, 19))
    def test_friendly_labelings_in_mask_order(self, n):
        friendly = [mask for mask in range(1 << n) if is_friendly(VertexLabeling(n, mask))]
        assert [lab.mask for lab in friendly_labelings(n)] == friendly
        assert [lab.mask for lab in friendly_labelings(n, fix_first_label=True)] == [
            mask for mask in friendly if not mask & 1
        ]


def refuse_scan(*args, **kwargs):
    raise AssertionError("labeling scan started")


class TestEdgeCountCertificate:
    def test_above_ceiling_answered_without_scan(self, monkeypatch):
        monkeypatch.setattr(engine, "_sliced_leaves", refuse_scan)
        assert is_orientable(complete_graph(40)) is None
        assert is_cordial(transitive_tournament(40)) is None
        g = tight_bound_graph(12)
        extra = next(e for e in complete_graph(12).edges if e not in g.edges)
        assert is_orientable(make_graph(12, g.edges + (extra,))) is None

    @pytest.mark.parametrize("n", range(3, 13))
    def test_ceiling_itself_is_scanned(self, n):
        g = tight_bound_graph(n)
        assert g.edge_count == max_edges(n)
        assert is_orientable(g) is not None


def disjoint_union(a, b):
    """Digraph b placed after digraph a, on vertices of its own."""
    k = a.vertex_count
    return Digraph(k + b.vertex_count, a.arcs + tuple([(t + k, h + k) for t, h in b.arcs]))


def caterpillar(n):
    """Tree with every degree in {1, 3}: a spine whose inner vertices each
    carry one pendant, numbered so each pendant follows its spine vertex
    (frontier width 1 in natural order).  n = 10 is counterexample_tree's
    shape."""
    edges = []
    spine = 0
    for nxt in range(1, n - 1, 2):
        edges += [(spine, nxt), (nxt, nxt + 1)]
        spine = nxt
    edges.append((spine, n - 1))
    return make_graph(n, edges)


def sparse_digraph(n, seed, degree=3.0):
    rng = random.Random(seed)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < degree / n:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, tuple(arcs))


def dp_mask(n, pairs, directed):
    """The frontier DP's first mask whatever the size: its plan, then the
    walk over the plan's layers."""
    layout, plan = engine._frontier_plan(n, pairs, directed)
    return engine._frontier_walk(plan, layout, layout.goal(n, len(pairs)))


def assert_graph_routes_agree(g):
    """The DP and the kernel give the same first mask on a graph."""
    n = g.vertex_count
    dp = dp_mask(n, g.edges, False)
    assert dp == scan_mask(n, g.edges, False)


def assert_routes_agree(d):
    """The DP and the kernel give the same first mask on a digraph and on
    its underlying graph."""
    n = d.vertex_count
    assert dp_mask(n, d.arcs, True) == scan_mask(n, d.arcs, True)
    assert_graph_routes_agree(make_graph(n, d.arcs))


class TestFrontierDpAgainstKernel:
    """The frontier DP, called directly, against the kernel: the same
    decision and witness mask, from which both deciders build their
    reports."""

    @given(digraphs(12))
    @settings(max_examples=300, deadline=None)
    def test_drawn_digraphs(self, d):
        assert_routes_agree(d)

    @given(digraphs(6), digraphs(6))
    @settings(max_examples=100, deadline=None)
    def test_disconnected(self, a, b):
        assert_routes_agree(disjoint_union(a, b))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_zero_edges_and_tournaments(self, n):
        assert_routes_agree(Digraph(n, ()))
        assert_routes_agree(transitive_tournament(n))

    @pytest.mark.parametrize("n", range(2, 23, 2))
    def test_alternating_paths_and_reversals(self, n):
        assert_routes_agree(alternating_path(n))
        assert_routes_agree(reverse(alternating_path(n)))

    def test_fixed_graphs(self):
        for g in (petersen_graph(), counterexample_tree(), tight_bound_graph(9)):
            assert_graph_routes_agree(g)
        assert_graph_routes_agree(Graph(0, ()))

    @pytest.mark.parametrize(
        "g",
        [
            Graph(7, ((0, 1), (0, 4), (0, 6), (1, 5), (2, 3))),
            Graph(9, ((1, 2), (1, 3), (4, 5), (4, 8), (5, 7))),
            Graph(10, ((1, 2), (1, 5), (4, 6), (4, 8), (6, 7), (7, 9))),
        ],
    )
    def test_walk_masks_its_targets(self, g):
        # Shifting a target down borrows across rows when a count would go
        # negative; unmasked, such a bit reaches a wrong but reachable
        # state and the walk returns an unfriendly labeling.
        assert_graph_routes_agree(g)

    @pytest.mark.parametrize("n", [10, 16, 22])
    def test_caterpillars(self, n):
        g = caterpillar(n)
        assert sorted(set(g.degrees())) == [1, 3]
        assert_graph_routes_agree(g)


def refuse_dp(*args, **kwargs):
    raise AssertionError("frontier DP started")


class TestRouting:
    @pytest.mark.parametrize("n", range(18, 61, 2))
    def test_alternating_paths_go_to_the_dp(self, monkeypatch, n):
        monkeypatch.setattr(engine, "_sliced_leaves", refuse_scan)
        report = is_cordial(alternating_path(n))
        assert (report is None) == (n % 12 == 10)
        if report is not None:
            assert is_friendly(report.labeling) and is_balanced_triple(report.gamma)
            assert report.labeling.label(0) == 0

    def test_dp_layers_are_capped(self, monkeypatch):
        # Every layer is kept for the witness walk: alternating_path(250)
        # needs under 64 MiB of bitsets, alternating_path(260) more.
        for n, fits in ((250, True), (260, False)):
            layout, steps = engine._frontier_plan(n, alternating_path(n).arcs, True)
            bits = sum(layout.size << w for w, _ in steps)
            assert (bits <= engine._DP_MAX_BITS) == fits
        monkeypatch.setattr(engine, "_sliced_leaves", refuse_scan)
        assert engine._first_mask(250, alternating_path(250).arcs, True) is None
        with pytest.raises(AssertionError, match="labeling scan started"):
            engine._first_mask(260, alternating_path(260).arcs, True)

    @pytest.mark.parametrize("n", [22, 28, 34, 46, 394])
    def test_caterpillars_go_to_the_dp(self, monkeypatch, n):
        monkeypatch.setattr(engine, "_sliced_leaves", refuse_scan)
        assert (is_orientable(caterpillar(n)) is None) == (n % 12 == 10)

    def test_dense_and_small_inputs_stay_on_the_kernel(self, monkeypatch):
        monkeypatch.setattr(engine, "_frontier_layers", refuse_dp)
        for n in range(1, 9):
            is_orientable(complete_graph(n))
            is_cordial(transitive_tournament(n))
        for n in range(3, 19):
            assert is_orientable(tight_bound_graph(n)) is not None
        assert is_orientable(petersen_graph()) is None
        assert is_orientable(counterexample_tree()) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_sparse_digraphs_stay_on_the_kernel(self, monkeypatch, seed):
        monkeypatch.setattr(engine, "_frontier_layers", refuse_dp)
        for n in (14, 16, 18):
            d = sparse_digraph(n, seed)
            assert witness_mask(is_cordial(d)) == scan_mask(n, d.arcs, True)


class TestVertexCap:
    """From n = 32,767 on, even the layers of no pair pass _DP_MAX_BITS,
    which leaves only the exponential kernel: such inputs are refused
    from their vertex count, before the kernel's budget is counted."""

    def test_billion_vertices_refused_at_once(self, monkeypatch):
        monkeypatch.setattr(engine, "_pinned_labelings", refuse_scan)
        refusal = r"^500000001000000000 bits of DP layers, over the 536870912 cap$"
        for decide, g in ((is_orientable, Graph(10**9, ())), (is_cordial, Digraph(10**9, ()))):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match=refusal):
                decide(g)
            assert time.perf_counter() - t0 < 0.5

    def test_largest_vertex_count_still_answered(self):
        least = engine._least_layer_bits
        assert least(32766) <= engine._DP_MAX_BITS < least(32767)
        with pytest.raises(ValueError, match=r"^536887295 bits of DP layers"):
            is_orientable(Graph(32767, ()))
        assert is_orientable(Graph(32766, ())) is not None


def banded(n, seed, directed):
    """Random pairs at most three apart, so the frontier width is at most 3."""
    rng = random.Random(seed)
    pairs = [
        (u, v) if not directed or rng.random() < 0.5 else (v, u)
        for u in range(n)
        for v in range(u + 1, min(u + 4, n))
        if rng.random() < 0.5
    ]
    return tuple(pairs) if directed else make_graph(n, pairs).edges


class TestLayout:
    @pytest.mark.parametrize("n", [23, 24])
    @pytest.mark.parametrize("directed", [True, False])
    def test_layers_fit_the_size_dp_pays_counts(self, monkeypatch, n, directed):
        pairs = banded(n, n, directed)
        layout, plan = engine._frontier_plan(n, pairs, directed)
        layers = [layer for _, layer in engine._frontier_layers(plan, layout)]
        assert all(s.bit_length() <= layout.size for layer in layers for s in layer)
        # Odd n reaches ceil(n/2) ones, one row more than n // 2 + 1 holds.
        assert max(s.bit_length() for s in layers[-1]) > layout.size - layout.one
        bound = layout.size * sum(len(layer) for layer in layers)
        first = scan_mask(n, pairs, directed)
        monkeypatch.setattr(engine, "_sliced_leaves", refuse_scan)
        monkeypatch.setattr(engine, "_DP_MAX_BITS", bound)
        assert engine._first_mask(n, pairs, directed) == first
        monkeypatch.setattr(engine, "_DP_MAX_BITS", bound - 1)
        with pytest.raises(AssertionError, match="labeling scan started"):
            engine._first_mask(n, pairs, directed)

    def test_only_narrow_steps_are_kept_across_calls(self):
        # Vertex 11 joins vertices 0..7, so the frontier grows to 8 wide.
        n, pairs = 12, tuple((v, 11) for v in range(8)) + ((8, 9), (9, 10))
        keys = {key for _, key in engine._frontier_plan(n, pairs, False)[1]}
        narrow = {key for key in keys if len(key[0]) <= engine._CACHED_STEP_WIDTH}
        assert 0 < len(narrow) < len(keys)
        engine._frontier_step.cache_clear()
        first = dp_mask(n, pairs, False)
        assert engine._frontier_step.cache_info().currsize == len(narrow)
        assert dp_mask(n, pairs, False) == first
        assert engine._frontier_step.cache_info().hits == len(narrow)


class CountingPairs(tuple):
    """A pair tuple that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def dp_pays(n, pairs, directed):
    """The route rule written out plainly: the frontier DP is taken when
    no width w after a vertex makes its work n * (n // 2) * 2^w reach the
    kernel's budget and its layers fit in _DP_MAX_BITS."""
    if n < 2 or len(pairs) > max_edges(n):
        return False
    last = list(range(n))
    links = [0] * n
    for t, h in pairs:
        last[t] = max(last[t], h)
        last[h] = max(last[h], t)
        links[max(t, h)] += 1
    widths = [sum(last[v] > i for v in range(i + 1)) for i in range(n)]
    labelings = sum(comb(n - 1, k) for k in {n // 2, (n + 1) // 2})
    budget = labelings // engine._LABELINGS_PER_DP_UNIT
    size = engine._layout(n, len(pairs), max(links), directed).size
    return (
        all(n * (n // 2) << w < budget for w in widths)
        and size * sum(1 << w for w in widths) <= engine._DP_MAX_BITS
    )


def route_inputs():
    for n in range(14, 41):
        for directed in (True, False):
            yield n, banded(n, n, directed), directed
    for n in range(14, 61, 2):
        yield n, caterpillar(n).edges, False
    for n in range(14, 23):
        for seed in range(5):
            yield n, sparse_digraph(n, seed).arcs, True
    for n in range(240, 271, 2):
        yield n, alternating_path(n).arcs, True


class TestOneDecision:
    @pytest.mark.parametrize(
        "n, pairs, directed",
        [
            (22, alternating_path(22).arcs, True),
            (60, alternating_path(60).arcs, True),
            (22, caterpillar(22).edges, False),
        ],
    )
    def test_dp_route_reads_its_pairs_once(self, monkeypatch, n, pairs, directed):
        monkeypatch.setattr(engine, "_sliced_leaves", refuse_scan)
        counted = CountingPairs(pairs)
        assert engine._first_mask(n, counted, directed) == dp_mask(n, pairs, directed)
        assert counted.reads == 1

    def test_route_matches_the_plain_rule(self, monkeypatch):
        routes = []
        monkeypatch.setattr(engine, "_scan_first_mask", lambda *a: routes.append("kernel"))
        monkeypatch.setattr(engine, "_frontier_walk", lambda *a: routes.append("dp"))
        expected = []
        for n, pairs, directed in route_inputs():
            engine._first_mask(n, pairs, directed)
            expected.append("dp" if dp_pays(n, pairs, directed) else "kernel")
        assert routes == expected
        assert {"dp", "kernel"} <= set(routes)


def labelings(n, pairs, pin=True):
    """The split-half enumerator that the sliced kernel replaced, kept as
    the oracle's: the friendly labelings of n vertices, one batch
    (mh, bh, hh, lows) per subset of the high half of the vertices, in
    ascending mh.  A subset carries its mask, B (the pairs with exactly
    one end in it) and H (the pairs whose head is in it); lows lists the
    (ml, bl, hl) of the low-half subsets whose sizes make mh | ml
    friendly, in ascending ml.  pin labels vertex 0 with 0."""
    incident = [0] * n
    head = [0] * n
    for j, (t, h) in enumerate(pairs):
        incident[t] ^= 1 << j
        incident[h] ^= 1 << j
        head[h] ^= 1 << j

    def subsets(vertices):
        # flips[i] XORs the first i vertices; the k-th subset in ascending
        # order differs from the (k-1)-th in the first (k & -k).bit_length().
        flips = [(0, 0, 0)]
        for v in vertices:
            mask, b, hh = flips[-1]
            flips.append((mask | 1 << v, b ^ incident[v], hh ^ head[v]))
        mask = b = hh = 0
        for k in range(1 << len(vertices)):
            if k:
                fm, fb, fh = flips[(k & -k).bit_length()]
                mask, b, hh = mask ^ fm, b ^ fb, hh ^ fh
            yield mask, b, hh

    half = (n + 1) // 2
    lows = list(subsets(range(1 if pin else 0, half)))
    sizes = {n // 2, (n + 1) // 2}
    fitting = [
        [low for low in lows if low[0].bit_count() + k in sizes]
        for k in range(n - half + 1)
    ]
    for mh, bh, hh in subsets(range(half, n)):
        yield mh, bh, hh, fitting[mh.bit_count()]


def masks_of(mask, pairs):
    """B and H of one labeling: B marks the pairs whose ends differ in
    label, H those whose head is labeled 1."""
    bi = heads = 0
    for j, (t, h) in enumerate(pairs):
        bi |= ((mask >> t ^ mask >> h) & 1) << j
        heads |= (mask >> h & 1) << j
    return bi, heads


def window_labelings(n, pairs):
    """Per-mask oracle of the census reader: (mask, B, H) of each friendly
    mask, vertex 0 labeled 0, in ascending order, whose |B| is a key of
    ``_balanced(m)``."""
    balanced = engine._balanced(len(pairs))
    found = []
    for mask in range(0, 1 << n, 2):
        if mask.bit_count() not in {n // 2, (n + 1) // 2}:
            continue
        bi, heads = masks_of(mask, pairs)
        if bi.bit_count() in balanced:
            found.append((mask, bi, heads))
    return found


def census_read(n, pairs):
    """The (B, H) of every labeling the census reads, in reading order."""
    return [
        (bh ^ bl, hh ^ hl)
        for bh, hh, lows in search._window_chunks(n, pairs)
        for bl, hl in lows
    ]


class TestLabelingTriples:
    """The census reader, ``search._window_chunks``, against the per-mask
    oracle, and the invariants of the oracle enumerator ``labelings``."""

    @given(digraphs(max_n=9))
    @settings(max_examples=100, deadline=None)
    def test_bichromatic_and_head_masks(self, d):
        n = d.vertex_count
        expected = window_labelings(n, d.arcs)
        assert census_read(n, d.arcs) == [(bi, heads) for _, bi, heads in expected]
        for mask, bi, heads in expected:
            assert (bi & heads).bit_count() == gamma_triple(d, VertexLabeling(n, mask)).alpha

    @pytest.mark.parametrize("n", range(16, 20))
    def test_census_reader_with_outer_vertices(self, n):
        # From n = 17 the lanes hold 15 vertices after vertex 0 and the
        # rest are outer, so the kernel yields several leaves.
        rng = random.Random(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = make_graph(n, rng.sample(pairs, n + 4)).edges
        expected = [(bi, heads) for _, bi, heads in window_labelings(n, edges)]
        assert expected and census_read(n, edges) == expected
        leaves = sum(1 for _ in engine._sliced_leaves(n, edges, False, True))
        assert (leaves > 1) == (n > 16)

    @given(digraphs(max_n=9), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_batch_invariants(self, d, pin):
        n = d.vertex_count
        sizes = {n // 2, (n + 1) // 2}
        low_half = (1 << (n + 1) // 2) - 1
        batches = list(labelings(n, d.arcs, pin=pin))
        highs = [mh for mh, _, _, _ in batches]
        assert highs == sorted(set(highs))
        assert not any(mh & low_half for mh in highs)
        for mh, _, _, lows in batches:
            masks = [ml for ml, _, _ in lows]
            assert masks == sorted(set(masks))
            assert all(ml & ~low_half == 0 for ml in masks)
            assert all((mh | ml).bit_count() in sizes for ml in masks)
        triples = [
            (mh | ml, bh ^ bl, hh ^ hl) for mh, bh, hh, lows in batches for ml, bl, hl in lows
        ]
        friendly = [mask for mask in range(1 << n) if mask.bit_count() in sizes]
        assert [mask for mask, _, _ in triples] == [
            mask for mask in friendly if not (pin and mask & 1)
        ]
        for mask, bi, heads in triples:
            assert (bi, heads) == masks_of(mask, d.arcs)


def join_first_mask(n, pairs, directed, pin=True):
    """The first passing mask by the batched join the sliced kernel
    replaced: one XOR and one popcount per labeling over the batches of
    ``labelings``."""
    balanced = engine._balanced(len(pairs))
    for mh, bh, hh, lows in labelings(n, pairs, pin=pin):
        for ml, bl, hl in lows:
            if (bh ^ bl).bit_count() in balanced:
                if not directed:
                    return mh | ml
                bi = bh ^ bl
                if (bi & (hh ^ hl)).bit_count() in balanced[bi.bit_count()]:
                    return mh | ml
    return None


def sliced_scan(n, pairs, directed, pin):
    """The kernel's first passing mask and its count of friendly
    labelings, read from every leaf, checking the leaves' order and that
    passing lanes are friendly."""
    first, count, last = None, 0, -1
    for outer, friendly, passing in engine._sliced_leaves(n, pairs, directed, pin):
        assert outer > last and friendly and passing & ~friendly == 0
        last = outer
        count += friendly.bit_count()
        if passing and first is None:
            first = outer | (passing & -passing).bit_length() - 1 << pin
    return first, count


def friendly_count(n, pin):
    if pin:
        return engine._pinned_labelings(n)
    return sum(comb(n, k) for k in {n // 2, (n + 1) // 2})


def dense_digraph(n, seed):
    """Seven tenths of max_edges(n) arcs at random: "no"s below the ceiling."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = rng.sample(pairs, 7 * max_edges(n) // 10)
    return tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs)


@st.composite
def lane_inputs(draw):
    """(n, pairs, directed, pin, b): up to two pairs over max_edges(n),
    and any lane count b the n - pin free vertices allow."""
    n = draw(st.integers(0, 14))
    directed, pin = draw(st.booleans()), draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    top = min(len(pairs), max_edges(n) + 2) if n >= 2 else 0
    rng = draw(st.randoms(use_true_random=False))
    picked = rng.sample(pairs, draw(st.integers(0, top)))
    if directed:
        picked = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in picked]
    else:
        picked = list(make_graph(n, picked).edges)
    b = draw(st.integers(0, max(n - pin, 0)))
    return n, tuple(picked), directed, pin, b


class TestSlicedKernel:
    @pytest.mark.parametrize("b", range(11))
    def test_lane_masks(self, b):
        lanes, by_ones = engine._lane_tables(b)
        assert len(lanes) == b and len(by_ones) == b + 1
        for i in range(b):
            assert all((lanes[i] >> k & 1) == (k >> i & 1) for k in range(1 << b))
        for j in range(b + 1):
            assert all((by_ones[j] >> k & 1) == (k.bit_count() == j) for k in range(1 << b))

    @given(lane_inputs())
    @settings(max_examples=300, deadline=None)
    def test_leaves_against_the_join(self, drawn):
        n, pairs, directed, pin, b = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_MAX_LANE_BITS", b)
            first, count = sliced_scan(n, pairs, directed, pin)
        assert first == join_first_mask(n, pairs, directed, pin)
        if first is None:
            assert count == friendly_count(n, pin)

    def test_alternating_p22_with_vertex_0_free(self):
        assert sliced_scan(22, alternating_path(22).arcs, True, False) == (None, 705432)

    def test_a_scan_leaves_no_garbage_cycles(self):
        # Counters held by a reference cycle would wait for the cyclic
        # collector, so memory would grow with the number of calls.
        pairs, d22 = tight_bound_graph(18).edges, alternating_path(22).arcs
        gc.collect()
        gc.disable()
        try:
            engine._scan_first_mask(18, pairs, False)
            sliced_scan(22, d22, True, False)
            # The census reads the kernel's leaves of P17: two of them.
            search.noncordial_orientations(path_graph(17), search.SymmetryMode.BOTH)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dense_no_below_the_ceiling(self):
        pairs = dense_digraph(24, 0)
        assert len(pairs) < max_edges(24)
        assert sliced_scan(24, pairs, True, True) == (None, engine._pinned_labelings(24))
        assert join_first_mask(24, pairs, True) is None


def assert_scan_is_the_join(n, arcs):
    assert scan_mask(n, arcs, True) == join_first_mask(n, arcs, True)
    edges = make_graph(n, arcs).edges
    assert scan_mask(n, edges, False) == join_first_mask(n, edges, False)


class TestWitnessIdentity:
    """The sliced kernel's first mask against the batched join it
    replaced, on inputs too large for the 2^n filter."""

    @given(digraphs(max_n=12))
    @settings(max_examples=150, deadline=None)
    def test_drawn_digraphs_and_their_graphs(self, d):
        assert_scan_is_the_join(d.vertex_count, d.arcs)

    @pytest.mark.parametrize("n", range(2, 23, 2))
    def test_alternating_paths(self, n):
        assert_scan_is_the_join(n, alternating_path(n).arcs)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_tight_bound_graphs(self, n):
        assert_scan_is_the_join(n, tight_bound_graph(n).edges)

    @pytest.mark.parametrize("g", [petersen_graph(), counterexample_tree()])
    def test_paper_graphs(self, g):
        assert_scan_is_the_join(g.vertex_count, g.edges)
