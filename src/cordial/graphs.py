"""Immutable value types for graphs, digraphs, orientations, and labelings.

Vertices are the integers 0..n-1.  Undirected edges are stored as (u, v)
pairs with u < v, sorted lexicographically; an edge's position in that
order is its canonical index.  An orientation packs one direction bit per
canonical edge index into a single integer, so enumerating all 2^m
orientations of a graph is plain integer counting.  All types are frozen
values.

A small text format moves graphs in and out of files: the first line is
``n m``, followed by m lines that are either ``u v`` for an undirected
edge or ``u > v`` for an arc from u to v.  Tokens are whitespace
separated and lines starting with ``#`` are comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, NamedTuple, Union


class GammaTriple(NamedTuple):
    """Counts of arcs labeled +1, -1, and 0 under a vertex labeling."""

    alpha: int
    beta: int
    gamma_zero: int


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with canonically ordered edges.

    The edge tuple must already be canonical: each pair (u, v) with
    u < v, strictly increasing lexicographically.  Use :func:`make_graph`
    to build one from arbitrary pair order.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        prev = None
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop edge ({u},{v})")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not in canonical u<v form")
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u},{v}) endpoint out of range for n={n}")
            if prev is not None and (u, v) <= prev:
                if (u, v) == prev:
                    raise ValueError(f"duplicate edge ({u},{v})")
                raise ValueError("edges not sorted in canonical order")
            prev = (u, v)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from pairs given in either endpoint order; ``Graph``
    rejects loops, repeated edges and out-of-range endpoints."""
    norm = sorted([(u, v) if u < v else (v, u) for u, v in edges])
    return Graph(vertex_count, tuple(norm))


@dataclass(frozen=True)
class Digraph:
    """Digon-free directed graph: arcs are (tail, head) pairs."""

    vertex_count: int
    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        seen = set()
        for t, h in self.arcs:
            if t == h:
                raise ValueError(f"loop arc ({t},{h})")
            if t < 0 or t >= n or h < 0 or h >= n:
                raise ValueError(f"arc ({t},{h}) endpoint out of range for n={n}")
            if (t, h) in seen:
                raise ValueError(f"duplicate arc ({t},{h})")
            if (h, t) in seen:
                raise ValueError(f"digon between {t} and {h}")
            seen.add((t, h))

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def out_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for t, _ in self.arcs:
            deg[t] += 1
        return tuple(deg)

    def in_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for _, h in self.arcs:
            deg[h] += 1
        return tuple(deg)


@dataclass(frozen=True, slots=True)
class Orientation:
    """Direction choice for every edge of a graph, one bit per edge.

    Bit j clear means edge j = (u, v) becomes the arc u -> v (recall
    u < v); bit j set means v -> u.  Displayed bit strings put edge
    index 0 leftmost.  Slotted: a census report can keep 2^22 of them,
    and Petersen's 2^14 failures take 0.88 MB instead of 1.50 MB
    (tracemalloc).
    """

    graph: Graph
    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.graph.edge_count:
            raise ValueError(
                f"bit-vector does not fit {self.graph.edge_count} edges"
            )

    def bit_string(self) -> str:
        return "".join(
            "1" if (self.bits >> j) & 1 else "0"
            for j in range(self.graph.edge_count)
        )

    @classmethod
    def from_bit_string(cls, graph: Graph, text: str) -> "Orientation":
        if len(text) != graph.edge_count or set(text) - {"0", "1"}:
            raise ValueError(
                f"need {graph.edge_count} characters of 0/1, got {text!r}"
            )
        bits = 0
        for j, c in enumerate(text):
            if c == "1":
                bits |= 1 << j
        return cls(graph, bits)


@dataclass(frozen=True, slots=True)
class VertexLabeling:
    """(0,1) labeling of vertices, stored as the bitmask of 1-labeled ones.

    Slotted: a kept labeling of 60 vertices takes 90 bytes instead of 131
    (tracemalloc), which matters to callers that keep many of them.
    """

    vertex_count: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.vertex_count:
            raise ValueError(f"mask does not fit {self.vertex_count} vertices")

    @classmethod
    def from_ones(cls, vertex_count: int, ones: Iterable[int]) -> "VertexLabeling":
        mask = 0
        for v in ones:
            mask |= 1 << v
        return cls(vertex_count, mask)

    @classmethod
    def from_labels(cls, labels: Iterable[int]) -> "VertexLabeling":
        mask = 0
        count = 0
        for i, x in enumerate(labels):
            if x not in (0, 1):
                raise ValueError(f"label {x!r} is not 0 or 1")
            if x:
                mask |= 1 << i
            count = i + 1
        return cls(count, mask)

    @property
    def ones(self) -> frozenset[int]:
        return frozenset(
            v for v in range(self.vertex_count) if (self.mask >> v) & 1
        )

    @property
    def ones_count(self) -> int:
        return self.mask.bit_count()

    def label(self, v: int) -> int:
        return (self.mask >> v) & 1

    def labels(self) -> tuple[int, ...]:
        return tuple([(self.mask >> v) & 1 for v in range(self.vertex_count)])

    def complement(self) -> "VertexLabeling":
        full = (1 << self.vertex_count) - 1
        return VertexLabeling(self.vertex_count, self.mask ^ full)

    def bit_string(self) -> str:
        return "".join(str((self.mask >> v) & 1) for v in range(self.vertex_count))


def orient(graph: Graph, orientation: Orientation) -> Digraph:
    """Apply a direction bit-vector to a graph, yielding a digon-free digraph."""
    if orientation.graph != graph:
        raise ValueError("orientation was built for a different graph")
    bits = orientation.bits
    # tuple() of a list, not of a generator: a tuple grown from a generator
    # is resized in place and freed onto another length's free list, which
    # the interpreter empties only at a full collection, so repeated calls
    # would keep raising the process's resident memory.
    arcs = tuple([
        (v, u) if (bits >> j) & 1 else (u, v)
        for j, (u, v) in enumerate(graph.edges)
    ])
    return Digraph(graph.vertex_count, arcs)


def reverse(digraph: Digraph) -> Digraph:
    """Reverse every arc."""
    return Digraph(digraph.vertex_count, tuple([(h, t) for t, h in digraph.arcs]))


# ---------------------------------------------------------------------------
# Named instances
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    """Path on vertices 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, tuple([(i, i + 1) for i in range(n - 1)]))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph(n, tuple([(u, v) for u in range(n) for v in range(u + 1, n)]))


def petersen_graph() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, spokes i - i+5, inner pentagram."""
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
    return make_graph(10, outer + spokes + inner)


def counterexample_tree() -> Graph:
    """10-vertex tree of max degree 3 that is not (2,3)-orientable.

    A path 0-1-2-3-4-5 with pendant vertices 6, 7, 8, 9 hanging off the
    four internal path vertices.
    """
    spine = [(i, i + 1) for i in range(5)]
    pendants = [(1, 6), (2, 7), (3, 8), (4, 9)]
    return make_graph(10, spine + pendants)


def alternating_path(n: int) -> Digraph:
    """Oriented path whose arc j (1-indexed) points forward iff j is odd.

    Internal vertices alternate between sources and sinks.  Requires an
    even number of vertices.
    """
    if n < 2 or n % 2:
        raise ValueError("alternating path needs an even vertex count >= 2")
    arcs = tuple([(j - 1, j) if j % 2 else (j, j - 1) for j in range(1, n)])
    return Digraph(n, arcs)


def bichromatic_capacity(n: int) -> int:
    """Largest possible number of bichromatic edges under a friendly labeling."""
    if n < 2:
        raise ValueError("need n >= 2")
    return ((n + 1) // 2) * (n // 2)


def max_edges(n: int) -> int:
    """Edge-count ceiling for (2,3)-orientable graphs on n vertices.

    With cap = bichromatic_capacity(n) bichromatic edges at most (C(n,2)
    minus the forced monochromatic count Z of K_n), a balanced triple
    (alpha, beta, lambda) has alpha + beta <= cap and
    lambda <= min(alpha, beta) + 1 <= floor(cap/2) + 1, so an orientable
    graph has m <= cap + floor(cap/2) + 1 = floor((3*cap + 2)/2) edges.
    tight_bound_graph meets this value, so it is exact.  It is clamped to
    C(n,2), which binds only below n = 6 where K_n is orientable.

    The value is one more than cap + ceil(cap/2) whenever cap is even,
    i.e. for every n except n = 2 (mod 4): 19 rather than 18 at n = 7,
    where every K_7 minus two edges is orientable.  Stated for n >= 6;
    smaller n are computed anyway and flagged by
    BoundsRecord.in_stated_range.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    cap = bichromatic_capacity(n)
    return min(comb(n, 2), cap + cap // 2 + 1)


def tight_bound_graph(n: int) -> Graph:
    """Densest (2,3)-orientable construction on n vertices.

    Complete bipartite graph between parts of sizes ceil(n/2) and
    floor(n/2), plus max_edges(n) - cross additional edges inside the
    parts, taken greedily in canonical order, so the graph meets the
    edge ceiling exactly.  Labeling the parts 0 and 1 and splitting the
    cross edges evenly between the two directions gives a balanced
    triple, e.g. (6, 6, 7) at n = 7.
    """
    if n < 3:
        raise ValueError("tight bound construction needs n >= 3")
    a = (n + 1) // 2
    part_a = range(a)
    part_b = range(a, n)
    cross = [(u, v) for u in part_a for v in part_b]
    intra = sorted(
        [(u, v) for u in part_a for v in part_a if u < v]
        + [(u, v) for u in part_b for v in part_b if u < v]
    )
    return make_graph(n, cross + intra[: max_edges(n) - len(cross)])


# Each generator name, in the order ``cordial gen`` lists them, with its
# generator and whether that takes a vertex count.
_GENERATORS: dict[str, tuple[Callable[..., Union[Graph, Digraph]], bool]] = {
    "path": (path_graph, True),
    "complete": (complete_graph, True),
    "petersen": (petersen_graph, False),
    "counterexample_tree": (counterexample_tree, False),
    "alternating_path": (alternating_path, True),
    "tight_bound": (tight_bound_graph, True),
}


def named(name: str, n: int | None = None) -> Union[Graph, Digraph]:
    """Dispatch to a named generator of ``_GENERATORS``.

    Generators that take a vertex count require ``n``; the others reject it.
    """
    if name not in _GENERATORS:
        raise ValueError(f"unknown graph name {name!r}")
    maker, sized = _GENERATORS[name]
    if not sized:
        if n is not None:
            raise ValueError(f"{name} does not take a vertex count")
        return maker()
    if n is None:
        raise ValueError(f"{name} requires a vertex count")
    return maker(n)


# ---------------------------------------------------------------------------
# Text edge-list format
# ---------------------------------------------------------------------------

def _token_rows(text: str) -> list[list[str]]:
    """The whitespace-separated tokens of each line of a text file format,
    skipping blank lines and ``#`` comment lines."""
    rows = [line.split() for line in text.splitlines()]
    return [tokens for tokens in rows if tokens and not tokens[0].startswith("#")]


def _int_token(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad integer {token!r}") from None


def parse_text(text: str) -> Union[Graph, Digraph]:
    """Parse the edge-list format; arcs (``u > v`` lines) give a Digraph."""
    rows = _token_rows(text)
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0]
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = _int_token(head[0]), _int_token(head[1])
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    pairs: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    for tokens in body:
        if len(tokens) == 2:
            pairs.append((_int_token(tokens[0]), _int_token(tokens[1])))
        elif len(tokens) == 3 and tokens[1] == ">":
            arcs.append((_int_token(tokens[0]), _int_token(tokens[2])))
        else:
            raise ValueError(f"bad edge line: {' '.join(tokens)}")
    if pairs and arcs:
        raise ValueError("file mixes undirected edges and arcs")
    if arcs:
        return Digraph(n, tuple(arcs))
    return make_graph(n, pairs)


def to_text(obj: Union[Graph, Digraph]) -> str:
    """Serialize a Graph or Digraph to the edge-list format."""
    if isinstance(obj, Graph):
        lines = [f"{obj.vertex_count} {obj.edge_count}"]
        lines += [f"{u} {v}" for u, v in obj.edges]
    elif isinstance(obj, Digraph):
        lines = [f"{obj.vertex_count} {obj.arc_count}"]
        lines += [f"{t} > {h}" for t, h in obj.arcs]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"
