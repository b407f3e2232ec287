"""Exhaustive enumeration of labelings and orientations, with symmetry
reduction, a polynomial dynamic program for oriented paths, and small
census routines (alternating-path scan, tournament survey).

Orientation enumeration is ascending over the bit-vector integers; arc
reversal symmetry pins bit 0 to 0 and halves the range, complement
symmetry pins vertex 0's label to 0 and halves the labeling scan.  The
orientation census enumerates labelings once per graph, not once per
orientation: see ``noncordial_orientations``.
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


def path_cordial_dp(digraph: Digraph) -> VertexLabeling | None:
    """Polynomial-time cordiality decision for an oriented path.

    The underlying graph must be the path 0 - 1 - ... - (n-1) with arcs
    listed in path order.  A dynamic program over states (ones used,
    +1 count, -1 count, previous label) decides whether a friendly
    labeling with balanced final counts exists and reconstructs one.
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
    max_ones = (n + 1) // 2
    # states[i]: set of (ones, alpha, beta, label of vertex i)
    states: list[set[tuple[int, int, int, int]]] = [{(0, 0, 0, 0), (1, 0, 0, 1)}]
    for i in range(1, n):
        fwd = forward[i - 1]
        nxt = set()
        for ones, alpha, beta, prev in states[i - 1]:
            for x in (0, 1):
                d = (x - prev) if fwd else (prev - x)
                a2 = alpha + (d == 1)
                b2 = beta + (d == -1)
                if a2 > cap or b2 > cap:
                    continue
                k2 = ones + x
                if k2 > max_ones:
                    continue
                nxt.add((k2, a2, b2, x))
        states.append(nxt)
    ok_ones = {n // 2, (n + 1) // 2}
    finals = sorted(
        s
        for s in states[-1]
        if s[0] in ok_ones
        and max(s[1], s[2], m - s[1] - s[2]) - min(s[1], s[2], m - s[1] - s[2]) <= 1
    )
    if not finals:
        return None
    ones, alpha, beta, last = finals[0]
    labels = [0] * n
    labels[n - 1] = last
    for i in range(n - 1, 0, -1):
        for q in (0, 1):
            d = (labels[i] - q) if forward[i - 1] else (q - labels[i])
            prev_state = (ones - labels[i], alpha - (d == 1), beta - (d == -1), q)
            if (
                prev_state[0] >= 0
                and prev_state[1] >= 0
                and prev_state[2] >= 0
                and prev_state in states[i - 1]
            ):
                ones, alpha, beta, _ = prev_state
                labels[i - 1] = q
                break
        else:
            raise AssertionError("DP reconstruction lost a state")
    return VertexLabeling.from_labels(labels)


def scan_alternating_paths(n_max: int) -> list[int]:
    """Even path sizes up to n_max whose alternating orientation is not cordial."""
    if n_max < 2 or n_max % 2:
        raise ValueError("n_max must be an even integer >= 2")
    return [
        n
        for n in range(2, n_max + 1, 2)
        if path_cordial_dp(alternating_path(n)) is None
    ]


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
