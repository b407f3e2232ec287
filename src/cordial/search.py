"""Exhaustive enumeration of labelings and orientations, with symmetry
reduction, a polynomial dynamic program for oriented paths, and small
census routines (alternating-path scan, tournament survey).

Orientation enumeration is ascending over the bit-vector integers; arc
reversal symmetry pins bit 0 to 0 and halves the range, complement
symmetry pins vertex 0's label to 0 and halves the labeling scan.  The
orientation census enumerates labelings once per graph, not once per
orientation: see ``noncordial_orientations``.

The path DP keeps one bitset per (ones used, label of the last vertex):
bit alpha * (cap + 2) + beta marks a reachable (+1 count, -1 count), so
an arc is a shift of the whole set, not a loop over states (see
``_path_layers``).  Arc j of an alternating path depends on j alone, so
``alternating_path(n)`` is the first n vertices of any longer one, and
``scan_alternating_paths`` reads every size's verdict from one pass.
"""

from __future__ import annotations

import enum
import time
import weakref
from dataclasses import dataclass
from typing import Iterator

from .engine import _labelings
from .graphs import (
    Digraph,
    Graph,
    Orientation,
    VertexLabeling,
    alternating_path,
    complete_graph,
)


class SymmetryMode(enum.Enum):
    """Which symmetry reductions an orientation search applies."""

    NONE = "none"
    FIX_FIRST_ARC = "fix_first_arc"
    FIX_FIRST_LABEL = "fix_first_label"
    BOTH = "both"

    @property
    def fix_arc(self) -> bool:
        return self in (SymmetryMode.FIX_FIRST_ARC, SymmetryMode.BOTH)


def friendly_labelings(
    n: int, fix_first_label: bool = False
) -> Iterator[VertexLabeling]:
    """All friendly labelings of n vertices in ascending bitmask order.

    With fix_first_label, vertex 0 is always labeled 0, keeping one
    labeling per complement pair.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    for mask, _, _ in _labelings(n, (), pin=fix_first_label):
        yield VertexLabeling(n, mask)


def orientations(graph: Graph, fix_first_arc: bool = False) -> Iterator[Orientation]:
    """All orientations of a graph as ascending bit-vector integers.

    With fix_first_arc, bit 0 is pinned to 0 (arc reversal symmetry),
    yielding 2^(m-1) orientations instead of 2^m.
    """
    m = graph.edge_count
    step = 2 if fix_first_arc and m > 0 else 1
    for bits in range(0, 1 << m, step):
        yield Orientation(graph, bits)


@dataclass(frozen=True)
class SearchReport:
    """Result of a non-cordial-orientation hunt over one graph."""

    graph_descriptor: str
    total_orientations_scanned: int
    noncordial: tuple[Orientation, ...]
    symmetry_mode: SymmetryMode
    wall_time: float


def _window_triples(graph: Graph) -> list[tuple[int, int, frozenset[int]]]:
    """Distinct (P, B, allowed alphas) of the friendly labelings, vertex 0
    pinned to 0, that can certify some orientation.

    A triple summing to m is balanced exactly when each count lies in the
    window {floor(m/3), ceil(m/3)}.  B marks the bichromatic edges, so
    lambda = m - |B| must be in it; P marks those whose u -> v arc is +1,
    so orientation o gets alpha = popcount((o ^ P) & B).
    """
    m = graph.edge_count
    window = {m // 3, (m + 2) // 3}
    pairs = {
        (plus, bi)
        for _, bi, plus in _labelings(graph.vertex_count, graph.edges)
        if m - bi.bit_count() in window
    }
    return [
        (plus, bi, frozenset(a for a in window if bi.bit_count() - a in window))
        for plus, bi in pairs
    ]


def _failing_bits(graph: Graph, step: int) -> Iterator[int]:
    """Every step-th orientation, ascending, that no window triple certifies."""
    triples = _window_triples(graph)
    return (
        bits
        for bits in range(0, 1 << graph.edge_count, step)
        if not any(((bits ^ p) & b).bit_count() in a for p, b, a in triples)
    )


_live_reports = weakref.WeakValueDictionary()


def noncordial_orientations(
    graph: Graph,
    symmetry: SymmetryMode = SymmetryMode.NONE,
    jobs: int | None = None,
    descriptor: str | None = None,
) -> SearchReport:
    """Enumerate orientations and collect those with no cordial labeling.

    Every orientation's 0-arc count is the labeling's monochromatic count
    lambda, so only labelings with lambda in {floor(m/3), ceil(m/3)} can
    certify any orientation; they are reduced once per graph to
    ``_window_triples``, and a graph without triples fails everywhere.
    Pinning vertex 0's label is exact: a labeling and its complement
    share B and lambda, and complementing maps alpha to |B| - alpha,
    under which the allowed set is closed.  So only the arc pin changes
    the result.  Failures are ascending; ``jobs`` is accepted and ignored.
    """
    n = graph.vertex_count
    m = graph.edge_count
    t0 = time.perf_counter()
    step = 2 if symmetry.fix_arc and m > 0 else 1
    noncordial = tuple(Orientation(graph, bits) for bits in _failing_bits(graph, step))
    # Equal censuses share one failure tuple while a report holding it is
    # alive, so kept repeats hold one copy (Petersen lists 2^14, 2 MB).
    last = _live_reports.get((graph, step))
    if last is not None and last.noncordial == noncordial:
        noncordial = last.noncordial
    report = SearchReport(
        graph_descriptor=descriptor or f"graph(n={n},m={m})",
        total_orientations_scanned=(1 << m) // step,
        noncordial=noncordial,
        symmetry_mode=symmetry,
        wall_time=time.perf_counter() - t0,
    )
    _live_reports[(graph, step)] = report
    return report


def _balanced_pairs(m: int) -> list[tuple[int, int]]:
    """(alpha, beta) of the balanced triples that sum to m, ascending.

    A triple summing to m is balanced exactly when each count lies in the
    window {floor(m/3), ceil(m/3)}.
    """
    window = range(m // 3, (m + 2) // 3 + 1)
    return [(a, b) for a in window for b in window if m - a - b in window]


def _path_layers(forward: list[bool], cap: int, max_ones: int) -> Iterator[list[int]]:
    """Reachable states of an oriented path, one layer per vertex.

    Entry ``2 * ones + label`` of layer i is a bitset over (alpha, beta):
    bit ``alpha * (cap + 2) + beta`` is set when some labeling of vertices
    0..i with ``ones`` ones, vertex i labeled ``label``, reaches +1 count
    alpha and -1 count beta with neither above cap.  forward[j] tells
    whether arc j runs j -> j + 1.  A +1 arc shifts a bitset by one row,
    a -1 arc by one bit, and the spare column keeps beta = cap + 1 in its
    own row until the ``valid`` mask clears it.  Each layer is a new list.
    """
    w = cap + 2
    valid = sum(((1 << (cap + 1)) - 1) << (a * w) for a in range(cap + 1))
    layer = [0] * (2 * max_ones + 2)
    layer[0] = layer[3] = 1
    yield layer
    for fwd in forward:
        # Shifts of the 0 -> 1 and 1 -> 0 label steps: +1 adds to alpha.
        up, down = (w, 1) if fwd else (1, w)
        nxt = [0] * len(layer)
        for k in range(0, 2 * max_ones + 2, 2):
            s0, s1 = layer[k], layer[k + 1]
            nxt[k] = s0 | ((s1 << down) & valid)
            if k < 2 * max_ones:
                nxt[k + 3] = ((s0 << up) & valid) | s1
        layer = nxt
        yield layer


def path_cordial_dp(digraph: Digraph) -> VertexLabeling | None:
    """Polynomial-time cordiality decision for an oriented path.

    The underlying graph must be the path 0 - 1 - ... - (n-1) with arcs
    listed in path order.  ``_path_layers`` keeps, for each vertex and
    each (ones used, label of that vertex), one int whose bits are the
    reachable (+1 count, -1 count) pairs, both capped at ceil(m/3); the
    three arc labels become a row shift, a bit shift and no shift.  The
    witness is the smallest final (ones, alpha, beta, last label) with
    friendly ones and a balanced triple, walked back preferring label 0.
    """
    n = digraph.vertex_count
    arcs = digraph.arcs
    if n < 1 or len(arcs) != n - 1:
        raise ValueError("input is not an oriented path")
    forward = []
    for j, (t, h) in enumerate(arcs):
        if {t, h} != {j, j + 1}:
            raise ValueError("input is not an oriented path in path order")
        forward.append(t == j)
    m = n - 1
    cap = (m + 2) // 3
    w = cap + 2
    layers = list(_path_layers(forward, cap, (n + 1) // 2))
    final = next(
        (
            (ones, alpha, beta, last)
            for ones in sorted({n // 2, (n + 1) // 2})
            for alpha, beta in _balanced_pairs(m)
            for last in (0, 1)
            if layers[-1][2 * ones + last] >> (alpha * w + beta) & 1
        ),
        None,
    )
    if final is None:
        return None
    ones, alpha, beta, last = final
    labels = [0] * n
    labels[n - 1] = last
    for i in range(n - 1, 0, -1):
        ones -= labels[i]
        for q in (0, 1):
            d = (labels[i] - q) if forward[i - 1] else (q - labels[i])
            a, b = alpha - (d == 1), beta - (d == -1)
            if a >= 0 and b >= 0 and layers[i - 1][2 * ones + q] >> (a * w + b) & 1:
                alpha, beta = a, b
                labels[i - 1] = q
                break
        else:
            raise AssertionError("DP reconstruction lost a state")
    return VertexLabeling.from_labels(labels)


def scan_alternating_paths(n_max: int) -> list[int]:
    """Even path sizes up to n_max whose alternating orientation is not cordial.

    Arc j of ``alternating_path(n)`` depends on j alone, so every
    alternating path is a prefix of ``alternating_path(n_max)``.  One pass
    of ``_path_layers`` over that path, capped for n_max, reads each even
    prefix's verdict from the layer at its last vertex: pruning only drops
    states whose counts or ones exceed the cap, and counts never fall, so
    the prefix's own reachable states are the ones within its caps.
    """
    if n_max < 2 or n_max % 2:
        raise ValueError("n_max must be an even integer >= 2")
    forward = [t < h for t, h in alternating_path(n_max).arcs]
    cap = (n_max + 1) // 3
    w = cap + 2
    failing = []
    for n, layer in enumerate(_path_layers(forward, cap, (n_max + 1) // 2), start=1):
        if n % 2 == 0:
            # n / 2 ones: entries n and n + 1 (last label 0 or 1).
            goal = sum(1 << (a * w + b) for a, b in _balanced_pairs(n - 1))
            if not (layer[n] | layer[n + 1]) & goal:
                failing.append(n)
    return failing


@dataclass(frozen=True)
class TournamentSurvey:
    """Census of cordiality over all labeled tournaments on n vertices."""

    n: int
    total: int
    noncordial_count: int


def tournament_survey(n: int) -> TournamentSurvey:
    """Check every orientation of the complete graph on n vertices.

    Guarded to 1 <= n <= 6; the census size is 2^C(n,2).
    """
    if not 1 <= n <= 6:
        raise ValueError("tournament survey supports 1 <= n <= 6")
    g = complete_graph(n)
    noncordial = sum(1 for _ in _failing_bits(g, 1))
    return TournamentSurvey(n=n, total=1 << g.edge_count, noncordial_count=noncordial)
