import dataclasses
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cordial import (
    Digraph,
    Graph,
    SymmetryMode,
    alternating_path,
    complete_graph,
    engine,
    friendly_labelings,
    gamma_triple,
    is_balanced_triple,
    is_cordial,
    is_friendly,
    is_orientable,
    noncordial_orientations,
    orient,
    orientations,
    path_cordial_dp,
    path_graph,
    petersen_graph,
    reverse,
    scan_alternating_paths,
    search,
    tournament_survey,
)


class TestFriendlyLabelings:
    def test_counts(self):
        assert len(list(friendly_labelings(4))) == 6
        assert len(list(friendly_labelings(5))) == 20
        assert len(list(friendly_labelings(10, fix_first_label=True))) == 126

    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_formula(self, n):
        expected = comb(n, n // 2) if n % 2 == 0 else 2 * comb(n, n // 2)
        assert len(list(friendly_labelings(n))) == expected

    def test_ascending_mask_order(self):
        masks = [lab.mask for lab in friendly_labelings(6)]
        assert masks == sorted(masks)

    def test_all_friendly(self):
        assert all(is_friendly(lab) for lab in friendly_labelings(7))

    def test_fix_first_label_pins_vertex_zero(self):
        fixed = list(friendly_labelings(6, fix_first_label=True))
        assert all(lab.label(0) == 0 for lab in fixed)
        assert len(fixed) == 10

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            next(friendly_labelings(0))


class TestOrientations:
    def test_counts(self):
        assert len(list(orientations(path_graph(4)))) == 8
        assert len(list(orientations(path_graph(10), fix_first_arc=True))) == 256

    def test_empty_graph_has_one_orientation(self):
        g = Graph(3, ())
        assert [o.bits for o in orientations(g)] == [0]
        assert [o.bits for o in orientations(g, fix_first_arc=True)] == [0]

    def test_fix_first_arc_pins_bit_zero(self):
        bits = [o.bits for o in orientations(path_graph(5), fix_first_arc=True)]
        assert bits == sorted(bits)
        assert all(b % 2 == 0 for b in bits)


class TestNoncordialOrientations:
    def test_p10_full_census(self):
        rep = noncordial_orientations(path_graph(10))
        assert rep.total_orientations_scanned == 512
        assert [o.bits for o in rep.noncordial] == [170, 341]

    def test_p10_fixed_arc(self):
        rep = noncordial_orientations(path_graph(10), SymmetryMode.FIX_FIRST_ARC)
        assert rep.total_orientations_scanned == 256
        assert [o.bits for o in rep.noncordial] == [170]

    def test_p4_includes_001(self):
        rep = noncordial_orientations(path_graph(4))
        bits = [o.bits for o in rep.noncordial]
        assert 4 in bits  # "001": arcs 0->1, 1->2, 3->2

    def test_p6_clean(self):
        rep = noncordial_orientations(path_graph(6))
        assert rep.noncordial == ()

    @pytest.mark.parametrize("mode", list(SymmetryMode))
    def test_reports_of_one_census_are_equal(self, mode):
        g = petersen_graph()
        assert noncordial_orientations(g, mode) == noncordial_orientations(g, mode)

    def test_fixed_arc_is_even_subset_of_full(self):
        g = path_graph(4)
        full = [o.bits for o in noncordial_orientations(g).noncordial]
        fixed = [
            o.bits
            for o in noncordial_orientations(g, SymmetryMode.FIX_FIRST_ARC).noncordial
        ]
        assert fixed == [b for b in full if b % 2 == 0]

    def test_failure_set_closed_under_reversal(self):
        g = path_graph(4)
        full = {o.bits for o in noncordial_orientations(g).noncordial}
        assert full == {b ^ 7 for b in full}

    def test_fix_first_label_same_failures(self):
        g = path_graph(10)
        a = noncordial_orientations(g, SymmetryMode.FIX_FIRST_LABEL)
        b = noncordial_orientations(g, SymmetryMode.NONE)
        assert [o.bits for o in a.noncordial] == [o.bits for o in b.noncordial]

    def test_listed_failures_recheck_noncordial(self):
        g = path_graph(10)
        for o in noncordial_orientations(g).noncordial:
            assert is_cordial(orient(g, o)) is None

    def test_kept_repeats_share_one_failure_int(self):
        g = petersen_graph()
        both = noncordial_orientations(g, SymmetryMode.BOTH)
        arc = noncordial_orientations(g, SymmetryMode.FIX_FIRST_ARC)
        full = noncordial_orientations(g, SymmetryMode.NONE)
        assert arc.failing is both.failing
        assert len(full.noncordial) == 2 * len(both.noncordial) == 1 << 15

    def test_sharing_survives_a_dropped_repeat(self):
        g = petersen_graph()
        kept = noncordial_orientations(g, SymmetryMode.BOTH)
        noncordial_orientations(g, SymmetryMode.BOTH)  # dropped at once
        third = noncordial_orientations(g, SymmetryMode.BOTH)
        assert third.failing is kept.failing

    def test_repr_of_a_large_report(self):
        # 2^14 failures: the int's decimal form would pass Python's
        # 4,300-digit limit, so repr leaves it out.
        rep = noncordial_orientations(petersen_graph(), SymmetryMode.BOTH)
        assert "failing" not in repr(rep)
        assert "total_orientations_scanned=16384" in repr(rep)

    def test_petersen_call_peak(self):
        # About 2.8 MB while the call built its 2^14 orientations.
        g = petersen_graph()
        tracemalloc.start()
        try:
            noncordial_orientations(g, SymmetryMode.BOTH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 1024

    def test_kept_reports_retain_one_failure_int(self):
        # Under 1 KB per kept report: a 4.4 KB int each, or one shared
        # tuple of 2^14 orientations (0.88 MB), would not fit.
        g = petersen_graph()
        tracemalloc.start()
        try:
            kept = [noncordial_orientations(g, SymmetryMode.BOTH) for _ in range(100)]
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len({id(r.failing) for r in kept}) == 1
        assert retained < 100 * 1024

    @pytest.mark.parametrize("mode", [SymmetryMode.NONE, SymmetryMode.FIX_FIRST_ARC])
    def test_kept_all_fail_reports_share_one_int(self, mode):
        # K6's 15 edges pass the edge ceiling and Petersen's 15 are not
        # orientable, so every orientation of both fails: kept reports of
        # either share the cached int of all 2^15, or of the even ones
        # with the arc pinned.
        graphs = [complete_graph(6), petersen_graph()] * 50
        kept = [noncordial_orientations(g, mode) for g in graphs]
        every = (1 << 2**15) - 1
        assert kept[0].failing == (every if mode is SymmetryMode.NONE else every // 3)
        assert len({id(r.failing) for r in kept}) == 1

    def test_partial_failures_are_not_shared(self):
        # Only an all-fail census reads the cache; P10's 2 failures of
        # 512 are its own.
        rep = noncordial_orientations(path_graph(10))
        assert rep.failing.bit_count() == 2
        assert rep.failing is not search._every_orientation(9, 1)

    def test_noncordial_is_built_on_each_read(self):
        rep = noncordial_orientations(path_graph(10))
        first = rep.noncordial
        assert rep.noncordial == first and rep.noncordial is not first
        assert all(o.graph is rep.graph for o in first)

    def test_replace_with_orientations_sets_failing(self):
        rep = noncordial_orientations(path_graph(10))
        short = dataclasses.replace(rep, noncordial=rep.noncordial[1:])
        assert short.failing == 1 << 341
        assert [o.bits for o in short.noncordial] == [341]
        assert dataclasses.replace(rep, wall_time=0.0) == rep

    def test_reading_at_the_cap_is_linear(self):
        # One failure per 64-bit word over 2^22 orientations; peeling the
        # lowest bit off the whole int would copy 512 KB per failure.
        g = path_graph(23)
        failing = int.from_bytes((1).to_bytes(8, "little") * (1 << 16), "little")
        rep = search.SearchReport(g, 1 << 22, failing, SymmetryMode.NONE, 0.0)
        t0 = time.perf_counter()
        bits = [o.bits for o in rep.noncordial]
        assert time.perf_counter() - t0 < 2
        assert bits == list(range(0, 1 << 22, 64))

    def test_jobs_argument_deterministic(self):
        g = path_graph(13)
        a = noncordial_orientations(g, SymmetryMode.FIX_FIRST_ARC, jobs=1)
        b = noncordial_orientations(g, SymmetryMode.FIX_FIRST_ARC, jobs=3)
        assert [o.bits for o in a.noncordial] == [o.bits for o in b.noncordial]
        assert a.total_orientations_scanned == b.total_orientations_scanned == 2048


def _rescan_failures(g):
    """Oracle: every orientation checked on its own through is_cordial."""
    return [o.bits for o in orientations(g) if is_cordial(orient(g, o)) is None]


def _assert_matches_rescan(g):
    failures = set(_rescan_failures(g))
    for mode in SymmetryMode:
        pin_arc = mode in (SymmetryMode.FIX_FIRST_ARC, SymmetryMode.BOTH)
        scanned = [o.bits for o in orientations(g, fix_first_arc=pin_arc)]
        rep = noncordial_orientations(g, mode)
        assert rep.total_orientations_scanned == len(scanned)
        assert [o.bits for o in rep.noncordial] == [b for b in scanned if b in failures]
        assert noncordial_orientations(g, mode, jobs=2).noncordial == rep.noncordial


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=12)) if pairs else set()
    return Graph(n, tuple(sorted(chosen)))


class TestWindowCensusAgainstRescan:
    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    def test_random_graphs(self, g):
        _assert_matches_rescan(g)

    @pytest.mark.parametrize(
        "g",
        [Graph(4, ()), complete_graph(4), complete_graph(6), path_graph(10)],
        ids=["empty", "K4", "K6", "P10"],
    )
    def test_fixed_graphs(self, g):
        _assert_matches_rescan(g)

    def test_k6_fails_every_orientation(self):
        rep = noncordial_orientations(complete_graph(6))
        assert [o.bits for o in rep.noncordial] == list(range(1 << 15))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tournament_counts(self, n):
        survey = tournament_survey(n)
        assert survey.total == 1 << comb(n, 2)
        assert survey.noncordial_count == len(_rescan_failures(complete_graph(n)))


def _friendly_masks(n):
    return [mask for mask in range(1 << n) if mask.bit_count() in {n // 2, (n + 1) // 2}]


def packed(g, step, width=search._BLOCK_BITS):
    """The census's failure int: its uncovered blocks, packed."""
    return search._pack(g.edge_count, search._uncovered_blocks(g, step, width))


def _loop_failing_bits(g, step):
    """Oracle: the plain census.  Every friendly mask, unpinned, gives B
    (the edges whose ends differ) and P (those of B whose second end is
    labeled 1), and its allowed alphas are those that make (alpha,
    |B| - alpha, m - |B|) pairwise within one; then one any() over the
    (P, B, allowed) for each step-th orientation."""
    m = g.edge_count
    triples = set()
    for mask in _friendly_masks(g.vertex_count):
        bi = plus = 0
        for j, (u, v) in enumerate(g.edges):
            if mask >> u & 1 != mask >> v & 1:
                bi |= 1 << j
                plus |= (mask >> v & 1) << j
        c = bi.bit_count()
        allowed = frozenset(
            a for a in range(c + 1) if max(a, c - a, m - c) - min(a, c - a, m - c) <= 1
        )
        if allowed:
            triples.add((plus, bi, allowed))
    return [
        bits
        for bits in range(0, 1 << m, step)
        if not any(((bits ^ p) & b).bit_count() in a for p, b, a in triples)
    ]


@st.composite
def census_graphs(draw, max_n=9, max_m=18):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=max_m)) if pairs else set()
    return Graph(n, tuple(sorted(chosen)))


class TestBlockedCensusAgainstLoop:
    """The blocked bitset census against the per-orientation loop."""

    @settings(max_examples=40, deadline=None)
    @given(census_graphs(), st.booleans())
    def test_random_graphs(self, g, pin_arc):
        mode = SymmetryMode.FIX_FIRST_ARC if pin_arc else SymmetryMode.NONE
        step = 2 if pin_arc and g.edge_count else 1
        rep = noncordial_orientations(g, mode)
        assert [o.bits for o in rep.noncordial] == _loop_failing_bits(g, step)

    @settings(max_examples=100, deadline=None)
    @given(census_graphs(max_n=7, max_m=10), st.booleans(), st.integers(1, 3))
    def test_narrow_blocks(self, g, pin_arc, width):
        # Widths 1-3 give many blocks, partly filled ones, and m below
        # the width; m = 0 is one block of one orientation.
        step = 2 if pin_arc and g.edge_count else 1
        want = _loop_failing_bits(g, step)
        assert packed(g, step, width) == sum(1 << b for b in want)
        blocks = list(search._uncovered_blocks(g, step, width))
        w = min(width, g.edge_count)
        bases = [base for base, _ in blocks]
        assert bases == sorted(set(bases))
        assert set(bases) <= set(range(0, 1 << g.edge_count, 1 << w))
        assert all(0 < left < 1 << (1 << w) for _, left in blocks)

    @pytest.mark.parametrize("width", [1, 2, 3, 6])
    @pytest.mark.parametrize(
        "g",
        [Graph(1, ()), Graph(3, ()), Graph(2, ((0, 1),)), path_graph(3), path_graph(10)],
        ids=["K1", "empty3", "K2", "P3", "P10"],
    )
    def test_small_and_empty(self, g, width):
        for step in (1, 2) if g.edge_count else (1,):
            want = _loop_failing_bits(g, step)
            assert packed(g, step, width) == sum(1 << b for b in want)

    def test_graph_without_triples_yields_whole_blocks(self):
        # No friendly labeling of Petersen has lambda = 5, the only count
        # in its window (m = 15).
        g = petersen_graph()
        assert all(
            sum(mask >> u & 1 == mask >> v & 1 for u, v in g.edges) != 5
            for mask in _friendly_masks(10)
        )
        blocks = list(search._uncovered_blocks(g, 2))
        assert len(blocks) == 1 << 9
        assert all(left == int("01" * 32, 2) for _, left in blocks)

    def test_failing_at_the_cap_is_linear(self, monkeypatch):
        # 65,536 whole 64-bit blocks, the 2^22 orientations of 22 edges;
        # OR-ing each block into one growing int would copy it per block.
        whole = (1 << 64) - 1
        blocks = lambda g, step, width: ((i << 6, whole) for i in range(1 << 16))
        monkeypatch.setattr(search, "_uncovered_blocks", blocks)
        t0 = time.perf_counter()
        failing = packed(path_graph(23), 1)
        assert time.perf_counter() - t0 < 2
        assert failing == (1 << 2**22) - 1

    def test_count_sets(self):
        for plus in range(8):
            for bi in range(8):
                plus_in = plus & bi
                sets = search._count_sets(plus_in, bi, 3)
                assert len(sets) == bi.bit_count() + 1
                for lo in range(8):
                    c = ((lo ^ plus_in) & bi).bit_count()
                    assert [s >> lo & 1 for s in sets] == [int(i == c) for i in range(len(sets))]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_tournament_popcounts(self, n):
        assert tournament_survey(n).noncordial_count == len(
            _loop_failing_bits(complete_graph(n), 1)
        )


def refuse_scan(*args, **kwargs):
    raise AssertionError("labelings scanned")


class TestCensusCap:
    def test_oversize_refused_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(search, "_sliced_leaves", refuse_scan)
        with pytest.raises(ValueError, match="over the 4194304 cap"):
            noncordial_orientations(path_graph(24))
        with pytest.raises(ValueError, match="over the 4194304 cap"):
            noncordial_orientations(path_graph(40), SymmetryMode.BOTH)
        # 4 orientations, but C(39, 20) pinned labelings; n = 27, with
        # C(26, 13) + C(26, 14) = C(27, 13) over both friendly sizes, is
        # the first to pass 2^24.
        refusal = r"68923264410 labelings to scan, over the 16777216 cap"
        with pytest.raises(ValueError, match=refusal):
            noncordial_orientations(Graph(40, ((0, 1), (1, 2))))
        with pytest.raises(ValueError, match=r"20058300 labelings"):
            noncordial_orientations(Graph(27, ((0, 1), (1, 2))))
        with pytest.raises(ValueError, match=r"20058300 labelings"):
            noncordial_orientations(Graph(28, ()))

    def test_counts_past_4300_digits_are_named_by_size(self, monkeypatch):
        # str() of an int of more than 4,300 digits raises ValueError, so
        # such counts are given as a power of two with the input's size.
        monkeypatch.setattr(search, "_sliced_leaves", refuse_scan)
        refusal = r"^at least 2\^14365 orientations to scan \(14365 edges\), over the 4194304 cap$"
        with pytest.raises(ValueError, match=refusal):
            noncordial_orientations(complete_graph(170))
        refusal = r"^at least 2\^19991 labelings to scan \(20000 vertices\), over the 16777216 cap$"
        with pytest.raises(ValueError, match=refusal):
            noncordial_orientations(Graph(20000, ()))
        # Below 2^64 the count is given in full.
        refusal = r"^9223372036854775808 orientations to scan, over the 4194304 cap$"
        with pytest.raises(ValueError, match=refusal):
            noncordial_orientations(path_graph(64))
        with pytest.raises(ValueError, match=r"^at least 2\^64 orientations to scan \(64 edges\)"):
            noncordial_orientations(path_graph(65))

    def test_billion_vertices_refused_before_the_binomial(self, monkeypatch):
        # From n = 32,767 on the count is bounded below by 2^(n-1) / n,
        # not computed; below it is computed and given in full.
        monkeypatch.setattr(search, "_sliced_leaves", refuse_scan)
        monkeypatch.setattr(search, "_pinned_labelings", refuse_scan)
        refusal = r"^at least 2\^999999969 labelings to scan \(1000000000 vertices\), over the 16777216 cap$"
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=refusal):
            noncordial_orientations(Graph(10**9, ()))
        assert time.perf_counter() - t0 < 0.5
        with pytest.raises(ValueError, match=r"^at least 2\^32751 labelings to scan \(32767 vertices\)"):
            noncordial_orientations(Graph(32767, ()))
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"^at least 2\^32757 labelings to scan \(32766 vertices\)"):
            noncordial_orientations(Graph(32766, ()))

    def test_largest_admitted_labeling_scan(self, monkeypatch):
        # C(25, 13) is under 2^24, so n = 26 is scanned.
        monkeypatch.setattr(search, "_uncovered_blocks", lambda g, step: iter(()))
        rep = noncordial_orientations(Graph(26, ((0, 1), (1, 2))))
        assert rep.total_orientations_scanned == 4

    def test_empty_graph_has_one_orientation(self):
        rep = noncordial_orientations(Graph(0))
        assert rep.total_orientations_scanned == 1
        assert rep.noncordial == ()

    def test_cap_counts_after_the_arc_pin(self, monkeypatch):
        # 2^22 orientations of a 23-edge graph once bit 0 is pinned.
        monkeypatch.setattr(search, "_uncovered_blocks", lambda g, step: iter(()))
        rep = noncordial_orientations(path_graph(24), SymmetryMode.FIX_FIRST_ARC)
        assert rep.total_orientations_scanned == 1 << 22


class TestCensusMemory:
    def test_p18_peak(self):
        # About 1.2-1.3 MB with each distinct (P, B) folded in as it is read;
        # 2.0-2.2 MB with a triple list copied from the pair set.
        g = path_graph(18)
        tracemalloc.start()
        try:
            noncordial_orientations(g, SymmetryMode.BOTH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * 1024 * 1024


class TestPathDp:
    def test_forward_path_has_witness(self):
        d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
        lab = path_cordial_dp(d)
        assert lab is not None
        assert is_friendly(lab)
        assert is_balanced_triple(gamma_triple(d, lab))

    def test_alternating_10_and_22_empty(self):
        assert path_cordial_dp(alternating_path(10)) is None
        assert path_cordial_dp(alternating_path(22)) is None

    def test_alternating_12_has_witness(self):
        d = alternating_path(12)
        lab = path_cordial_dp(d)
        assert lab is not None
        assert is_balanced_triple(gamma_triple(d, lab))

    def test_single_vertex(self):
        assert path_cordial_dp(Digraph(1, ())) is not None

    def test_non_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            path_cordial_dp(Digraph(3, ((0, 2), (1, 2))))
        with pytest.raises(ValueError, match="path"):
            path_cordial_dp(Digraph(4, ((0, 1), (1, 2))))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_agrees_with_labeling_scan(self, n):
        # The kernel, not is_cordial, which may route paths to the same
        # layer builder.
        g = path_graph(n)
        for o in orientations(g):
            d = orient(g, o)
            lab = path_cordial_dp(d)
            assert (None if lab is None else lab.mask) == engine._scan_first_mask(
                n, d.arcs, True
            )


class TestScanAlternating:
    def test_small_ranges(self):
        assert scan_alternating_paths(8) == []
        assert scan_alternating_paths(10) == [10]
        assert scan_alternating_paths(22) == [10, 22]

    def test_bad_nmax(self):
        with pytest.raises(ValueError):
            scan_alternating_paths(9)
        with pytest.raises(ValueError):
            scan_alternating_paths(0)

    def test_reach_150_is_the_mod_12_family(self):
        assert scan_alternating_paths(150) == list(range(10, 151, 12))

    def test_oversize_layer_refused(self):
        # 2 * (n_max/2 + 1) * (ceil((n_max - 1)/3) + 2)^2 bits per layer
        # first exceeds the engine's 64 MiB cap at n_max = 1686.
        with pytest.raises(ValueError, match="bits per DP layer"):
            scan_alternating_paths(1686)

    def test_oversize_refused_before_the_path_is_built(self, monkeypatch):
        def no_build(n):
            raise AssertionError(f"alternating_path({n}) built")

        monkeypatch.setattr(search, "alternating_path", no_build)
        with pytest.raises(ValueError, match="bits per DP layer"):
            scan_alternating_paths(1686)

    @pytest.mark.parametrize(
        "digits, refusal",
        [
            (1501, r"^at least 2\^14945 bits per DP layer \(n_max of 4983 bits\), over the 536870912 cap$"),
            (5000, r"^at least 2\^49815 bits per DP layer \(n_max of 16607 bits\), over the 536870912 cap$"),
        ],
        ids=["1501-digits", "5000-digits"],
    )
    def test_nmax_past_4300_digits_names_the_cap(self, digits, refusal):
        # str() refuses an int of over 4,300 digits; a 5,000-digit n_max
        # is refused without one.
        with pytest.raises(ValueError, match=refusal):
            scan_alternating_paths(10 ** (digits - 1))


def _path_dp_oracle(d):
    """Reference path DP: a set of (ones, alpha, beta, label) per vertex,
    vertex 0 pinned to label 0, every layer kept.  The witness is walked
    back from vertex n - 1 with the set of reachable states that still
    complete to a friendly balanced labeling, label 0 first: the first
    friendly mask in ascending order."""
    n = d.vertex_count
    forward = [t == j for j, (t, h) in enumerate(d.arcs)]
    m = n - 1
    cap = (m + 2) // 3
    max_ones = (n + 1) // 2
    states = [{(0, 0, 0, 0)}]
    for i in range(1, n):
        nxt = set()
        for ones, alpha, beta, prev in states[i - 1]:
            for x in (0, 1):
                diff = (x - prev) if forward[i - 1] else (prev - x)
                a2, b2 = alpha + (diff == 1), beta + (diff == -1)
                if a2 <= cap and b2 <= cap and ones + x <= max_ones:
                    nxt.add((ones + x, a2, b2, x))
        states.append(nxt)
    target = {
        s
        for s in states[-1]
        if s[0] in {n // 2, (n + 1) // 2}
        and max(s[1], s[2], m - s[1] - s[2]) - min(s[1], s[2], m - s[1] - s[2]) <= 1
    }
    if not target:
        return None
    labels = [0] * n
    for i in range(n - 1, -1, -1):
        labels[i] = x = min(s[3] for s in target)
        if i:
            target = states[i - 1] & {
                (ones - x, alpha - (diff == 1), beta - (diff == -1), q)
                for ones, alpha, beta, label in target
                if label == x
                for q in (0, 1)
                for diff in [(x - q) if forward[i - 1] else (q - x)]
            }
    return sum(bit << v for v, bit in enumerate(labels))


def _assert_dp_matches_oracle(d):
    lab = path_cordial_dp(d)
    assert (None if lab is None else lab.mask) == _path_dp_oracle(d)


def _oriented_path(n, forward_bits):
    return Digraph(
        n,
        tuple((j, j + 1) if forward_bits >> j & 1 else (j + 1, j) for j in range(n - 1)),
    )


@st.composite
def oriented_paths(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    return _oriented_path(n, draw(st.integers(min_value=0, max_value=(1 << (n - 1)) - 1)))


class TestPathDpAgainstOracle:
    """The frontier DP's path answers against a set-of-tuples DP."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_orientation(self, n):
        for bits in range(1 << (n - 1)):
            _assert_dp_matches_oracle(_oriented_path(n, bits))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_oracle_is_the_kernel(self, n):
        for bits in range(1 << (n - 1)):
            d = _oriented_path(n, bits)
            assert _path_dp_oracle(d) == engine._scan_first_mask(n, d.arcs, True)

    @settings(max_examples=50, deadline=None)
    @given(oriented_paths())
    def test_random_orientations(self, d):
        _assert_dp_matches_oracle(d)

    @pytest.mark.parametrize("n", range(2, 61, 2))
    def test_alternating_and_reversed(self, n):
        _assert_dp_matches_oracle(alternating_path(n))
        _assert_dp_matches_oracle(reverse(alternating_path(n)))

    def test_one_pass_scan_matches_per_size_dp(self):
        assert scan_alternating_paths(60) == [
            n for n in range(2, 61, 2) if path_cordial_dp(alternating_path(n)) is None
        ]

    def test_witness_at_150(self):
        d = alternating_path(150)
        lab = path_cordial_dp(d)
        assert lab is not None
        assert is_friendly(lab)
        assert is_balanced_triple(gamma_triple(d, lab))

    def test_memory_at_60(self):
        d = alternating_path(60)
        tracemalloc.start()
        try:
            path_cordial_dp(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


class TestTournamentSurvey:
    def test_small_counts(self):
        assert tournament_survey(3) == tournament_survey(3)
        s3 = tournament_survey(3)
        assert (s3.total, s3.noncordial_count) == (8, 0)
        s4 = tournament_survey(4)
        assert s4.total == 64
        assert s4.noncordial_count > 0

    def test_guard(self):
        # K_n is sized by the census's own caps before it is built: n = 8
        # has 2^28 tournaments, and n < 1 is no complete graph.
        with pytest.raises(ValueError, match="complete graph needs at least 1 vertex"):
            tournament_survey(0)
        with pytest.raises(ValueError, match=r"^268435456 orientations to scan, over the 4194304 cap$"):
            tournament_survey(8)

    def test_oversize_refused_before_k_n_is_built(self, monkeypatch):
        def no_build(n):
            raise AssertionError(f"complete_graph({n}) built")

        monkeypatch.setattr(search, "complete_graph", no_build)
        refusal = r"^at least 2\^499999500000 orientations to scan \(499999500000 edges\)"
        with pytest.raises(ValueError, match=refusal):
            tournament_survey(10**6)

    def test_seven_is_answered_by_the_edge_ceiling(self):
        survey = tournament_survey(7)
        assert (survey.total, survey.noncordial_count) == (2097152, 2097152)
        assert is_orientable(complete_graph(7)) is None
