"""Cordiality over quasigroup operation tables.

Generalizes the (2,3) calculus: vertex labels are drawn from a subset S
of a quasigroup Q, the arc t -> h receives op(f(t), f(h)), and both the
vertex labeling (over S) and the arc labeling (over all of Q) must have
fiber sizes pairwise within one of each other, empty fibers included.
For undirected graphs the same idea needs a commutative table so that
edge labels are well defined.

The (2,3) case is the instance over Z3 with op(x, y) = (y - x) mod 3 and
vertex labels restricted to {0, 1}; element 1 plays the role of +1 and
element 2 of -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence, Union

from .engine import _MAX_VERTICES, _refuse_labelings, _refuse_over
from .graphs import Digraph, Graph, _token_rows


@dataclass(frozen=True)
class CayleyTable:
    """Operation table of a finite binary operation on 0..q-1.

    ``rows[a][b]`` is a*b.  Optional display names give elements a
    human-readable spelling.  Squareness and entry range are enforced;
    the quasigroup (Latin square) law is checked separately by
    :func:`validate_latin` so that defective tables can be handled.
    """

    rows: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        q = len(self.rows)
        for row in self.rows:
            if len(row) != q:
                raise ValueError("ragged table")
            for x in row:
                if not 0 <= x < q:
                    raise ValueError(f"entry {x} out of range 0..{q - 1}")
        if self.names is not None and len(self.names) != q:
            raise ValueError("names length does not match table order")

    @property
    def order(self) -> int:
        return len(self.rows)

    def op(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def display(self, x: int) -> str:
        return self.names[x] if self.names else str(x)

    def is_commutative(self) -> bool:
        q = self.order
        return all(
            self.rows[a][b] == self.rows[b][a]
            for a in range(q)
            for b in range(a + 1, q)
        )


def validate_latin(table: Union[CayleyTable, Sequence[Sequence[int]]]) -> bool:
    """Check the quasigroup law: every row and column is a permutation."""
    if not isinstance(table, CayleyTable):
        table = CayleyTable(tuple([tuple(row) for row in table]))
    q = table.order
    full = frozenset(range(q))
    if any(set(row) != full for row in table.rows):
        return False
    return all({table.rows[i][j] for i in range(q)} == full for j in range(q))


@dataclass(frozen=True)
class CordialInstance:
    """A quasigroup table plus the subset of elements used as vertex labels.

    The arc convention is fixed: the arc t -> h is labeled
    op(f(tail), f(head)).
    """

    table: CayleyTable
    label_subset: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.label_subset:
            raise ValueError("label subset must be nonempty")
        q = self.table.order
        if len(set(self.label_subset)) != len(self.label_subset):
            raise ValueError("label subset has repeated elements")
        for x in self.label_subset:
            if not 0 <= x < q:
                raise ValueError(f"label {x} not an element of the table")


def z3_minus_instance() -> CordialInstance:
    """The instance realizing (2,3)-cordiality.

    Z3 elements displayed as 0, +1, -1 with op(x, y) = (y - x) mod 3 and
    vertex labels restricted to {0, 1}, so arcs get f(head) - f(tail).
    """
    rows = tuple(tuple((y - x) % 3 for y in range(3)) for x in range(3))
    table = CayleyTable(rows, names=("0", "+1", "-1"))
    return CordialInstance(table, (0, 1))


def _refuse_oversize(n: int, s: int) -> None:
    """The walk's size rule, from the counts alone: refuse over 2^24 of the
    n! / (floor(n/s)!^(s-r) * ceil(n/s)!^r) * C(s, r) balanced assignments
    of n vertices to s symbols, r = n mod s (n >= 27 for s = 2).  s = 1,
    one assignment of n labels, is refused past ``_MAX_VERTICES``."""
    if s == 1:
        _refuse_over(_MAX_VERTICES, n, "labels in one labeling", "{} vertices", n)

    def balanced(n: int) -> int:
        base, r = divmod(n, s)
        return factorial(n) // (factorial(base) ** (s - r) * factorial(base + 1) ** r) * comb(s, r)

    _refuse_labelings(n, balanced)


def _first_balanced(
    n: int,
    symbols: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    op_rows: Sequence[Sequence[int]],
) -> tuple[int, ...] | None:
    """First assignment V -> symbols, in ``itertools.product(symbols,
    repeat=n)`` order, whose fiber sizes pairwise differ by <= 1 and under
    which the pair labels op_rows[f(u)][f(v)] are balanced over the table.

    Counting empty fibers makes surjectivity automatic once n >= the
    number of symbols, and waives it below.  With q symbols, balanced
    fibers hold floor(n/q) positions, or one more in exactly n mod q of
    them.  A depth-first walk that tries the symbols in their given order
    and keeps within those limits therefore reaches only balanced
    assignments, in product order, and never a dead end; it counts the
    pair labels of each one it reaches and returns the first balanced one.
    ``_refuse_oversize`` sizes the walk before it starts.
    """
    q = len(symbols)
    _refuse_oversize(n, q)
    base, extra = divmod(n, q)
    counts = [0] * q
    picks: list[int] = []  # symbol index chosen at each position so far
    labels: list[int] = []
    full = 0  # fibers already holding base + 1 positions
    s = 0  # next symbol index to try at position len(picks)
    while True:
        if len(picks) == n:
            pair_counts = [0] * len(op_rows)
            for u, v in pairs:
                pair_counts[op_rows[labels[u]][labels[v]]] += 1
            if max(pair_counts) - min(pair_counts) <= 1:
                return tuple(labels)
            s = q
        while s < q and not (
            counts[s] < base or (counts[s] == base and full < extra)
        ):
            s += 1
        if s < q:
            full += counts[s] == base
            counts[s] += 1
            picks.append(s)
            labels.append(symbols[s])
            s = 0
        elif picks:
            s = picks.pop()
            labels.pop()
            counts[s] -= 1
            full -= counts[s] == base
            s += 1
        else:
            return None


def is_subset_q_cordial(
    digraph: Digraph, instance: CordialInstance
) -> tuple[int, ...] | None:
    """First balanced vertex labeling inducing a balanced arc labeling.

    Vertex labels come from the instance's subset and are balanced over
    it; arc labels op(f(tail), f(head)) must be balanced over the whole
    table.  Labelings are tried in lexicographic order.  More than 2^24
    balanced vertex labelings, or a one-symbol subset past 32,766
    vertices, raise ValueError before the walk.
    """
    return _first_balanced(
        digraph.vertex_count, instance.label_subset, digraph.arcs, instance.table.rows
    )


def is_a_cordial(graph: Graph, table: CayleyTable) -> tuple[int, ...] | None:
    """Cordiality of an undirected graph over a commutative table.

    Vertex labels range over all table elements; the edge (u, v) gets
    op(f(u), f(v)).  Both labelings must be balanced over the full
    element set.  Raises on a non-commutative table, since undirected
    edges would then have ambiguous labels, and on a table with no
    elements, which has no labels to balance, and on the sizes that
    ``is_subset_q_cordial`` refuses.
    """
    if not table.order:
        raise ValueError("table has no elements")
    if not table.is_commutative():
        raise ValueError("table is not commutative; undirected edges need one")
    return _first_balanced(
        graph.vertex_count, tuple(range(table.order)), graph.edges, table.rows
    )


def parse_cayley_text(text: str) -> CayleyTable:
    """Load a table: first line q, then q rows of q integers."""
    rows = _token_rows(text)
    if not rows:
        raise ValueError("empty table file")
    if len(rows[0]) != 1:
        raise ValueError("first line must be the table order")
    try:
        q = int(rows[0][0])
    except ValueError:
        raise ValueError(f"bad table order {rows[0][0]!r}") from None
    body = rows[1:]
    if len(body) != q:
        raise ValueError(f"expected {q} table rows, found {len(body)}")
    try:
        entries = tuple(tuple(int(x) for x in row) for row in body)
    except ValueError:
        raise ValueError("table entries must be integers") from None
    return CayleyTable(entries)


def cayley_to_text(table: CayleyTable) -> str:
    lines = [str(table.order)]
    lines += [" ".join(str(x) for x in row) for row in table.rows]
    return "\n".join(lines) + "\n"
