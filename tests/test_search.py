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

    def test_kept_repeats_share_one_failure_tuple(self):
        g = petersen_graph()
        both = noncordial_orientations(g, SymmetryMode.BOTH)
        arc = noncordial_orientations(g, SymmetryMode.FIX_FIRST_ARC)
        full = noncordial_orientations(g, SymmetryMode.NONE)
        assert arc.noncordial is both.noncordial
        assert len(full.noncordial) == 2 * len(both.noncordial) == 1 << 15

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


def _loop_failing_bits(g, step):
    """Oracle: the plain census, one any() over every window triple for
    each step-th orientation."""
    triples = search._window_triples(g)
    return [
        bits
        for bits in range(0, 1 << g.edge_count, step)
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
        assert list(search._failing_bits(g, step, width)) == want
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
            assert list(search._failing_bits(g, step, width)) == _loop_failing_bits(g, step)

    def test_graph_without_triples_yields_whole_blocks(self):
        g = petersen_graph()
        assert search._window_triples(g) == []
        blocks = list(search._uncovered_blocks(g, 2))
        assert len(blocks) == 1 << 9
        assert all(left == int("01" * 32, 2) for _, left in blocks)

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


class TestCensusCap:
    def test_oversize_refused_before_the_scan(self, monkeypatch):
        def no_scan(g):
            raise AssertionError("window triples built")

        monkeypatch.setattr(search, "_window_triples", no_scan)
        with pytest.raises(ValueError, match="over the 4194304 cap"):
            noncordial_orientations(path_graph(24))
        with pytest.raises(ValueError, match="over the 4194304 cap"):
            noncordial_orientations(path_graph(40), SymmetryMode.BOTH)

    def test_cap_counts_after_the_arc_pin(self, monkeypatch):
        # 2^22 orientations of a 23-edge graph once bit 0 is pinned.
        monkeypatch.setattr(search, "_failing_bits", lambda g, step: iter(()))
        rep = noncordial_orientations(path_graph(24), SymmetryMode.FIX_FIRST_ARC)
        assert rep.total_orientations_scanned == 1 << 22


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
        with pytest.raises(ValueError):
            tournament_survey(0)
        with pytest.raises(ValueError):
            tournament_survey(7)
