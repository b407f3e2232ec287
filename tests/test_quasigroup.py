import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cordial import (
    CayleyTable,
    CordialInstance,
    Digraph,
    Graph,
    VertexLabeling,
    alternating_path,
    cayley_to_text,
    complete_graph,
    engine,
    gamma_triple,
    is_a_cordial,
    is_balanced_triple,
    is_cordial,
    is_friendly,
    is_subset_q_cordial,
    parse_cayley_text,
    path_graph,
    quasigroup,
    validate_latin,
    z3_minus_instance,
)
from cordial.quasigroup import _first_balanced

Z2 = CayleyTable(((0, 1), (1, 0)))
Z3 = CayleyTable(((0, 1, 2), (1, 2, 0), (2, 0, 1)))


class TestCayleyTable:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            CayleyTable(((0, 1), (1,)))

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            CayleyTable(((0, 2), (1, 0)))

    def test_names_length_checked(self):
        with pytest.raises(ValueError):
            CayleyTable(((0,),), names=("a", "b"))

    def test_commutativity(self):
        assert Z3.is_commutative()
        assert not z3_minus_instance().table.is_commutative()


class TestValidateLatin:
    def test_group_tables_accepted(self):
        assert validate_latin(Z2)
        assert validate_latin(Z3)
        assert validate_latin(z3_minus_instance().table)

    def test_raw_rows_accepted(self):
        assert validate_latin([[0, 1], [1, 0]])

    def test_repeated_entry_rejected(self):
        assert not validate_latin([[0, 0], [1, 0]])

    def test_row_swap_breaks_columns(self):
        rows = [list(r) for r in Z3.rows]
        rows[1][0], rows[1][2] = rows[1][2], rows[1][0]
        assert not validate_latin(rows)

    def test_ragged_raises(self):
        with pytest.raises(ValueError, match="ragged"):
            validate_latin([[0, 1], [1]])

    def test_repeated_raw_rows_leave_no_blocks(self):
        # A tuple grown from a generator ends on another length's free
        # list (see graphs.orient); 7 rows is a length no other test uses.
        rows = [[(i + j) % 7 for j in range(7)] for i in range(7)]
        before = sys.getallocatedblocks()
        for _ in range(3000):
            validate_latin(rows)
        assert sys.getallocatedblocks() - before < 200


class TestZ3MinusInstance:
    def test_operation_matches_arc_convention(self):
        t = z3_minus_instance().table
        assert t.op(0, 1) == 1
        assert t.op(1, 1) == 0
        assert t.op(1, 0) == 2
        assert t.display(1) == "+1"
        assert t.display(2) == "-1"

    def test_subset(self):
        assert z3_minus_instance().label_subset == (0, 1)

    def test_is_latin(self):
        assert validate_latin(z3_minus_instance().table)


class TestCordialInstance:
    def test_subset_must_be_elements(self):
        with pytest.raises(ValueError):
            CordialInstance(Z2, (0, 2))

    def test_subset_nonempty(self):
        with pytest.raises(ValueError):
            CordialInstance(Z2, ())

    def test_subset_no_repeats(self):
        with pytest.raises(ValueError):
            CordialInstance(Z2, (0, 0))


class TestSubsetQCordial:
    def test_single_arc(self):
        inst = z3_minus_instance()
        assert is_subset_q_cordial(Digraph(2, ((0, 1),)), inst) == (0, 1)

    def test_alternating_path_10_empty(self):
        assert is_subset_q_cordial(alternating_path(10), z3_minus_instance()) is None

    def test_matches_direct_engine_on_random_digraphs(self):
        inst = z3_minus_instance()
        rng = random.Random(7311)
        for _ in range(60):
            n = rng.randrange(1, 8)
            arcs = []
            for u in range(n):
                for v in range(u + 1, n):
                    pick = rng.randrange(3)
                    if pick == 1:
                        arcs.append((u, v))
                    elif pick == 2:
                        arcs.append((v, u))
            d = Digraph(n, tuple(arcs))
            witness = is_subset_q_cordial(d, inst)
            assert (witness is None) == (is_cordial(d) is None)
            if witness is not None:
                lab = VertexLabeling.from_labels(witness)
                assert is_friendly(lab)
                assert is_balanced_triple(gamma_triple(d, lab))

    @pytest.mark.parametrize("n", [18, 20, 22])
    def test_long_alternating_paths_match_is_cordial(self, n):
        # n = 22 is the first "no" after n = 10.
        d = alternating_path(n)
        witness = is_subset_q_cordial(d, z3_minus_instance())
        assert (witness is None) == (is_cordial(d) is None) == (n == 22)
        if witness is not None:
            lab = VertexLabeling.from_labels(witness)
            assert is_friendly(lab)
            assert is_balanced_triple(gamma_triple(d, lab))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_is_cordial_on_drawn_digraphs(self, data):
        n = data.draw(st.integers(1, 9))
        pairs = list(itertools.combinations(range(n), 2))
        picks = data.draw(
            st.lists(st.sampled_from((0, 1, 2)), min_size=len(pairs), max_size=len(pairs))
        )
        arcs = [(u, v) if p == 1 else (v, u) for (u, v), p in zip(pairs, picks) if p]
        d = Digraph(n, tuple(arcs))
        witness = is_subset_q_cordial(d, z3_minus_instance())
        assert (witness is None) == (is_cordial(d) is None)
        if witness is not None:
            lab = VertexLabeling.from_labels(witness)
            assert is_friendly(lab)
            assert is_balanced_triple(gamma_triple(d, lab))


def spread(f, elements):
    counts = [f.count(x) for x in elements]
    return max(counts) - min(counts)


def balanced_assignments(n, symbols):
    return [f for f in itertools.product(symbols, repeat=n) if spread(f, symbols) <= 1]


def first_with_balanced_pairs(assignments, pairs, rows):
    """The walk's oracle: the first assignment, in the given order, whose
    pair labels are balanced over the whole table."""
    return next(
        (
            f
            for f in assignments
            if spread([rows[f[u]][f[v]] for u, v in pairs], range(len(rows))) <= 1
        ),
        None,
    )


def cyclic_tables(q):
    """Z_q under x + y (commutative) and under y - x (not, for q > 2)."""
    return [
        tuple(tuple(op(x, y) % q for y in range(q)) for x in range(q))
        for op in (lambda x, y: x + y, lambda x, y: y - x)
    ]


KLEIN = tuple(tuple(x ^ y for y in range(4)) for x in range(4))
NON_LATIN = ((0, 0, 1), (2, 1, 1), (0, 2, 2))
DRAWN_TABLES = [rows for q in range(1, 6) for rows in cyclic_tables(q)] + [
    KLEIN,
    z3_minus_instance().table.rows,
    NON_LATIN,
]


class TestBalancedAssignments:
    @pytest.mark.parametrize("symbols", [(0, 1), (0, 1, 2), (2, 0), (0, 1, 2, 3)])
    def test_matches_product_filter(self, symbols):
        # Sum tables are commutative and difference tables are not, so
        # the direction of a pair counts; order q + 1 leaves one element
        # off every vertex label.
        q = max(symbols) + 1
        tables = cyclic_tables(q) + cyclic_tables(q + 1)
        for n in range(9):
            balanced = balanced_assignments(n, symbols)
            pair_sets = [
                (),
                tuple((j, j + 1) for j in range(n - 1)),
                alternating_path(10).arcs[: max(n - 1, 0)],
                tuple((0, v) if v % 3 else (v, 0) for v in range(1, n)),
            ]
            for rows in tables:
                for pairs in pair_sets:
                    expected = first_with_balanced_pairs(balanced, pairs, rows)
                    assert _first_balanced(n, symbols, pairs, rows) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_product_filter_on_dense_pairs(self, data):
        # Dense pair sets give each vertex many lower pairs, so the walk's
        # ceil(m/q) cut fires deep in the walk and on counts near the cap;
        # the fixed pair sets above are paths and stars.
        rows = data.draw(st.sampled_from(DRAWN_TABLES))
        shuffled = data.draw(st.permutations(range(len(rows))))
        symbols = tuple(shuffled[: data.draw(st.integers(1, len(rows)))])
        n = data.draw(st.integers(0, 8))
        pairs = list(itertools.combinations(range(n), 2))
        picks = data.draw(
            st.lists(st.sampled_from((0, 1, 2)), min_size=len(pairs), max_size=len(pairs))
        )
        pairs = [(u, v) if p == 1 else (v, u) for (u, v), p in zip(pairs, picks) if p]
        expected = first_with_balanced_pairs(balanced_assignments(n, symbols), pairs, rows)
        assert _first_balanced(n, symbols, pairs, rows) == expected


class TestSizeCheck:
    @pytest.mark.parametrize("s", range(1, 6))
    def test_count_is_the_walks(self, monkeypatch, s):
        # Under a cap of 0 every count is refused and named: it is the
        # number of balanced assignments, also with more symbols than
        # vertices.
        monkeypatch.setattr(engine, "_MAX_LABELINGS", 0)
        symbols = tuple(range(s))
        for n in range(8):
            count = sum(
                spread(f, symbols) <= 1 for f in itertools.product(symbols, repeat=n)
            )
            with pytest.raises(ValueError, match=f"^{count} labelings to scan, over the 0 cap$"):
                _first_balanced(n, symbols, (), Z2.rows)

    def test_two_symbols_refused_from_27_vertices(self):
        # As the orientation census: 2 * C(27, 13) passes 2^24, while
        # C(26, 13) = 10,400,600 does not.
        inst = z3_minus_instance()
        assert is_subset_q_cordial(Digraph(26, ()), inst) == (0,) * 13 + (1,) * 13
        with pytest.raises(ValueError, match=r"^40116600 labelings to scan, over the 16777216 cap$"):
            is_subset_q_cordial(Digraph(27, ()), inst)

    def test_one_symbol_refused_past_the_derived_vertex_limit(self):
        # The engine's one vertex limit, derived from its DP cap: the most
        # vertices whose edgeless layers fit in _DP_MAX_BITS.
        cap = engine._MAX_VERTICES
        assert cap == 32766
        assert engine._least_layer_bits(cap) <= engine._DP_MAX_BITS
        assert engine._least_layer_bits(cap + 1) > engine._DP_MAX_BITS
        assert engine._over_ceiling(cap, 0) is False
        with pytest.raises(ValueError, match=r"^536887295 bits of DP layers, over the 536870912 cap$"):
            engine._over_ceiling(cap + 1, 0)
        one = CordialInstance(z3_minus_instance().table, (0,))
        assert is_subset_q_cordial(Digraph(cap, ()), one) == (0,) * cap
        with pytest.raises(ValueError, match=r"^32767 labels in one labeling, over the 32766 cap$"):
            is_subset_q_cordial(Digraph(cap + 1, ()), one)

    def test_billion_vertices_refused_at_once(self, monkeypatch):
        def no_count(n):
            raise AssertionError(f"factorial({n}) computed")

        monkeypatch.setattr(quasigroup, "factorial", no_count)
        n = 10**9
        many = r"^at least 2\^999999969 labelings to scan \(1000000000 vertices\), over the 16777216 cap$"
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=many):
            is_subset_q_cordial(Digraph(n, ()), z3_minus_instance())
        with pytest.raises(ValueError, match=many):
            is_a_cordial(Graph(n, ()), Z3)
        one = CordialInstance(z3_minus_instance().table, (0,))
        with pytest.raises(ValueError, match=r"^1000000000 labels in one labeling, over the 32766 cap$"):
            is_subset_q_cordial(Digraph(n, ()), one)
        assert time.perf_counter() - t0 < 0.5


class TestACordial:
    def test_p3_z2_first_witness(self):
        assert is_a_cordial(path_graph(3), Z2) == (0, 0, 1)

    def test_single_vertex_z2(self):
        assert is_a_cordial(path_graph(1), Z2) == (0,)

    def test_non_commutative_rejected(self):
        with pytest.raises(ValueError, match="commutative"):
            is_a_cordial(path_graph(3), z3_minus_instance().table)

    def test_order_zero_table_rejected(self):
        with pytest.raises(ValueError, match="no elements"):
            is_a_cordial(path_graph(3), CayleyTable(()))

    def test_k3_z3(self):
        witness = is_a_cordial(complete_graph(3), Z3)
        if witness is not None:
            counts = [witness.count(x) for x in range(3)]
            assert max(counts) - min(counts) <= 1


class TestCayleyText:
    def test_round_trip(self):
        for table in (Z2, Z3, z3_minus_instance().table):
            parsed = parse_cayley_text(cayley_to_text(table))
            assert parsed.rows == table.rows

    def test_wrong_row_count(self):
        with pytest.raises(ValueError, match="expected 3"):
            parse_cayley_text("3\n0 1 2\n1 2 0\n")

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            parse_cayley_text("2\n0 1\n1 x\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_cayley_text("\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\n0 1\n1 0\n", "first line must be the table order"),
            ("x\n", "bad table order 'x'"),
        ],
    )
    def test_bad_order_line(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_cayley_text(text)
        assert str(info.value) == message
