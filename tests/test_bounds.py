from itertools import combinations, islice
from math import comb

import pytest

from cordial import (
    Graph,
    bichromatic_capacity,
    bounds,
    bounds_record,
    complete_graph,
    complete_graph_zero_excess,
    engine,
    friendly_labelings,
    gamma_triple,
    is_balanced_triple,
    is_friendly,
    is_orientable,
    lambda_count,
    max_edges,
    orient,
    tournament_survey,
    verify_bound,
    z_value,
)


class TestFormulas:
    def test_z_values(self):
        assert z_value(6) == 6
        assert z_value(7) == 9
        assert z_value(2) == 0

    def test_z_even_case_doubles_half_clique(self):
        for n in range(2, 40, 2):
            assert z_value(n) == 2 * comb(n // 2, 2)

    def test_max_edges(self):
        # A balanced triple has alpha + beta <= cap and
        # lambda <= min(alpha, beta) + 1 <= cap // 2 + 1, so
        # m <= cap + cap // 2 + 1 with cap = 9, 12, 16 at n = 6, 7, 8.
        assert max_edges(6) == 14
        assert max_edges(7) == 19
        assert max_edges(8) == 25

    def test_guards(self):
        for fn in (z_value, max_edges, bichromatic_capacity, complete_graph_zero_excess):
            with pytest.raises(ValueError):
                fn(1)

    def test_capacity_identity_up_to_1000(self):
        for n in range(2, 1001):
            assert comb(n, 2) - z_value(n) == ((n + 1) // 2) * (n // 2)
            assert bichromatic_capacity(n) == ((n + 1) // 2) * (n // 2)

    def test_zero_excess(self):
        assert complete_graph_zero_excess(5)  # raw comparison only; see docstring
        assert complete_graph_zero_excess(6)
        assert complete_graph_zero_excess(12)
        assert not complete_graph_zero_excess(4)
        assert not complete_graph_zero_excess(2)
        assert all(complete_graph_zero_excess(n) for n in range(6, 101))

    def test_bounds_record(self):
        rec = bounds_record(6)
        assert (rec.z, rec.bichromatic_capacity, rec.e_max) == (6, 9, 14)
        assert rec.in_stated_range
        assert not bounds_record(5).in_stated_range


class TestNecessityInequality:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_lambda_at_least_m_minus_capacity(self, n):
        # Over all labeled graphs on n vertices and all friendly labelings,
        # via bitmasks: lambda = popcount(graph & mono), m = popcount(graph).
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        cap = bichromatic_capacity(n)
        mono_masks = []
        for lab in friendly_labelings(n):
            mono = 0
            for j, (u, v) in enumerate(pairs):
                if lab.label(u) == lab.label(v):
                    mono |= 1 << j
            mono_masks.append(mono)
        for gbits in range(1 << len(pairs)):
            m = gbits.bit_count()
            for mono in mono_masks:
                assert (gbits & mono).bit_count() >= m - cap


class TestVerifyBound:
    def test_n6_no_violations_and_tight_witness(self):
        rep = verify_bound(6)
        assert rep.graphs_checked == 1  # only K6 exceeds 14 edges
        assert rep.violations == ()
        assert rep.tight_witness is not None
        tight_graph = rep.tight_witness.orientation.graph
        assert tight_graph.edge_count == 14
        gam = gamma_triple(
            orient(tight_graph, rep.tight_witness.orientation),
            rep.tight_witness.labeling,
        )
        assert gam == rep.tight_witness.gamma
        assert is_balanced_triple(gam)
        assert is_friendly(rep.tight_witness.labeling)

    def test_n7_formula_is_beaten_by_19_edge_graphs(self):
        # The formula cap + ceil(cap/2) gives 18 at n = 7, but every
        # 7-vertex graph with 19 edges (complete minus two edges) admits a
        # friendly labeling with 7 monochromatic edges = ceil(19/3), hence
        # is orientable.  All C(21,2) = 210 of them beat that formula.
        cap = bichromatic_capacity(7)
        assert cap + (cap + 1) // 2 == 18
        all_edges = complete_graph(7).edges
        dropped_pairs = list(combinations(all_edges, 2))
        assert len(dropped_pairs) == 210
        for dropped in dropped_pairs:
            g = Graph(7, tuple(e for e in all_edges if e not in dropped))
            assert g.edge_count == 19
            assert is_orientable(g) is not None
        # max_edges(7) = 19 is exact: only the 22 graphs with 20 or 21
        # edges lie above it, none is orientable, and the witness meets it.
        rep = verify_bound(7)
        assert rep.graphs_checked == 22
        assert rep.violations == ()
        assert rep.tight_witness is not None
        assert rep.tight_witness.orientation.graph.edge_count == 19

    def test_census_runs_the_scan_on_every_graph(self, monkeypatch):
        # The census must not use the edge-count certificate: it would
        # assume the very ceiling being tested.
        scanned = []
        scan = engine._sliced_leaves

        def counting_scan(*args, **kwargs):
            scanned.append(args[0])
            return scan(*args, **kwargs)

        monkeypatch.setattr(engine, "_sliced_leaves", counting_scan)
        rep = verify_bound(7)
        assert rep.graphs_checked == 22
        assert scanned == [7] * 23  # 22 graphs above the ceiling + the witness

    def test_k6_not_orientable_certificate(self):
        g = complete_graph(6)
        window = (g.edge_count // 3, (g.edge_count + 2) // 3)
        assert all(
            lambda_count(g, lab) not in window for lab in friendly_labelings(6)
        )

    @pytest.mark.usefixtures("orientable_above_ceiling")
    def test_violation_reported(self):
        rep = verify_bound(6)
        assert rep.violations == (complete_graph(6),)
        assert rep.tight_witness is not None
        assert rep.tight_witness.orientation.graph.edge_count == 14

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_small_n_checks_no_graph(self, n):
        # Below n = 6 the ceiling is clamped to C(n,2): nothing lies above it.
        rep = verify_bound(n)
        assert rep.graphs_checked == 0
        assert rep.violations == ()
        assert rep.tight_witness.orientation.graph.edge_count == max_edges(n) == comb(n, 2)

    def test_n8_no_violations_and_tight_witness(self):
        rep = verify_bound(8)
        assert rep.graphs_checked == 407
        assert rep.violations == ()
        witness = rep.tight_witness
        tight_graph = witness.orientation.graph
        assert tight_graph.edge_count == 25
        gam = gamma_triple(orient(tight_graph, witness.orientation), witness.labeling)
        assert gam == witness.gamma
        assert is_balanced_triple(gam)
        assert is_friendly(witness.labeling)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_sized_count_is_the_enumerated_count(self, n):
        pairs = comb(n, 2)
        sized = sum(comb(pairs, m) for m in range(max_edges(n) + 1, pairs + 1))
        assert verify_bound(n).graphs_checked == sized

    def test_enumeration_short_of_its_size_is_an_error(self, monkeypatch):
        def drop_first(edges, m):
            return islice(combinations(edges, m), 1, None)

        monkeypatch.setattr(bounds, "combinations", drop_first)
        with pytest.raises(AssertionError, match=r"^sized 22 graphs above the ceiling, scanned 20$"):
            verify_bound(7)

    def test_guard(self, monkeypatch):
        # Sized from n alone: nothing is built before the refusal.
        monkeypatch.setattr(bounds, "complete_graph", refuse_build)
        monkeypatch.setattr(bounds, "tight_bound_graph", refuse_build)
        with pytest.raises(ValueError, match=r"^1200911040 labelings to scan, over the 16777216 cap$"):
            verify_bound(10)
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"^tight bound construction needs n >= 3$"):
            verify_bound(2)

    def test_n_past_2200_digits_names_the_cap(self, monkeypatch):
        # The exponents themselves pass 2^64, so they are worded by their
        # bit length; neither C(n - 1, n/2) nor the graph count is evaluated.
        monkeypatch.setattr(bounds, "_pinned_labelings", refuse_build)
        n = 10**2200
        refusal = (
            r"^at least 2\^\(2\^14613\) labelings to scan \(at least 2\^7308 vertices\), "
            r"over the 16777216 cap$"
        )
        with pytest.raises(ValueError, match=refusal):
            verify_bound(n)
        refusal = (
            r"^at least 2\^\(2\^14615\) orientations to scan \(at least 2\^14615 edges\), "
            r"over the 4194304 cap$"
        )
        with pytest.raises(ValueError, match=refusal):
            tournament_survey(n)


def refuse_build(*args):
    raise AssertionError("built or counted before the size check")
