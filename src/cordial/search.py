"""Exhaustive enumeration of labelings and orientations, with symmetry
reduction, a polynomial dynamic program for oriented paths, and small
census routines (alternating-path scan, tournament survey).

Orientation enumeration is ascending over the bit-vector integers; arc
reversal symmetry pins bit 0 to 0 and halves the range, complement
symmetry pins vertex 0's label to 0 and halves the labeling scan.  The
orientation census enumerates labelings once per graph, not once per
orientation, and reduces them to window triples; it then scans blocks
of 2^6 orientations, each held as one int, OR-ing per block the set of
orientations each triple certifies until the block is full: see
``noncordial_orientations``.

The path DP is the engine's frontier DP, whose layers on a path keep one
bitset per label of the last vertex over the reachable (ones used, +1
count, -1 count), laid out by the engine's ``_layout``, so an arc is a
shift of the whole set, not a loop over states.  ``path_cordial_dp``
checks the path order and returns the engine's witness.  Arc j of an
alternating path depends on j alone, so
``alternating_path(n)`` is the first n vertices of any longer one, and
``scan_alternating_paths`` reads every size's verdict from one pass.
"""

from __future__ import annotations

import enum
import time
import weakref
from dataclasses import dataclass
from typing import Iterator

from .engine import (
    _DP_MAX_BITS,
    _frontier_first_mask,
    _frontier_layers,
    _frontier_plan,
    _frontier_steps,
    _labelings,
    _layout,
    _window,
)
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
    for mh, _, _, lows in _labelings(n, (), pin=fix_first_label):
        for ml, _, _ in lows:
            yield VertexLabeling(n, mh | ml)


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
    window = _window(m)
    bichromatic = {m - lam for lam in window}
    pairs = set()
    for _, bh, hh, lows in _labelings(graph.vertex_count, graph.edges):
        for _, bl, hl in lows:
            if (bh ^ bl).bit_count() in bichromatic:
                bi = bh ^ bl
                pairs.add((bi & (hh ^ hl), bi))
    return [
        (plus, bi, frozenset(a for a in window if bi.bit_count() - a in window))
        for plus, bi in pairs
    ]


_BLOCK_BITS = 6
_MAX_ORIENTATIONS = 1 << 22


def _count_sets(plus: int, bi: int, width: int) -> list[int]:
    """Bitsets over the low orientations lo < 2^width, one per count c:
    bit lo of entry c is set when popcount((lo ^ plus) & bi) == c.

    A count DP over the low edges, one bitset per count: edge j doubles
    the range, its upper half shifted by 2^j, and adds one to the count
    of the half whose bit j differs from plus's when j is in bi.
    """
    sets = [1]
    for j in range(width):
        shift = 1 << j
        if not bi >> j & 1:
            sets = [s | s << shift for s in sets]
        elif plus >> j & 1:
            sets = [s << shift | t for s, t in zip(sets + [0], [0] + sets)]
        else:
            sets = [s | t << shift for s, t in zip(sets + [0], [0] + sets)]
    return sets


def _uncovered_blocks(
    graph: Graph, step: int, width: int = _BLOCK_BITS
) -> Iterator[tuple[int, int]]:
    """(base, mask) per block of 2^w orientations, w = min(width, m), that
    keeps a failure, in ascending base: bit i of mask is set when
    orientation base + i is a step-th one that no window triple certifies.

    A triple's alpha splits at edge bit w into a high count, fixed by
    the block, and a low count, so per block it certifies the low set
    that ``_count_sets`` gives for the allowed low counts.  Triples
    sharing their high (P, B) share that count, so their low sets are
    OR-ed into one table indexed by it, built once per call.  A block
    ORs one table entry per high (P, B) and stops once it is full; a
    graph without triples yields every block whole.
    """
    m = graph.edge_count
    w = min(width, m)
    full = (1 << (1 << w)) - 1
    # With the arc pinned, odd orientations start out covered.
    skip = sum(1 << i for i in range(1, 1 << w, 2)) if step == 2 else 0
    low = (1 << w) - 1
    counts: dict[tuple[int, int], list[int]] = {}
    tables: dict[tuple[int, int], list[int]] = {}
    for plus, bi, allowed in _window_triples(graph):
        key = (plus & low, bi & low)
        if key not in counts:
            counts[key] = _count_sets(*key, w)
        sets = counts[key]
        high = bi >> w
        table = tables.setdefault((plus >> w, high), [0] * (high.bit_count() + 1))
        for h in range(len(table)):
            for a in allowed:
                if 0 <= a - h < len(sets):
                    table[h] |= sets[a - h]
    rows = [(p, b, table) for (p, b), table in tables.items()]
    for hi in range(1 << (m - w)):
        covered = skip
        for p, b, table in rows:
            covered |= table[((hi ^ p) & b).bit_count()]
            if covered == full:
                break
        else:
            yield hi << w, full ^ covered


def _failing_bits(graph: Graph, step: int, width: int = _BLOCK_BITS) -> Iterator[int]:
    """Every step-th orientation, ascending, that no window triple certifies."""
    for base, left in _uncovered_blocks(graph, step, width):
        while left:
            bit = left & -left
            yield base + bit.bit_length() - 1
            left ^= bit


_live_reports = weakref.WeakValueDictionary()


def noncordial_orientations(
    graph: Graph,
    symmetry: SymmetryMode = SymmetryMode.NONE,
    jobs: int | None = None,
) -> SearchReport:
    """Enumerate orientations and collect those with no cordial labeling.

    Every orientation's 0-arc count is the labeling's monochromatic count
    lambda, so only labelings with lambda in {floor(m/3), ceil(m/3)} can
    certify any orientation; they are reduced once per graph to
    ``_window_triples``, and a graph without triples fails everywhere.
    Pinning vertex 0's label is exact: a labeling and its complement
    share B and lambda, and complementing maps alpha to |B| - alpha,
    under which the allowed set is closed.  So only the arc pin changes
    the result.  The orientations are scanned in blocks of 2^6 by
    ``_uncovered_blocks``: one OR per high (P, B) certifies up to 64 of
    them at once, and a block stops at the first OR that fills it.
    Failures are ascending; ``jobs`` is accepted and ignored.

    More than 2^22 orientations after the arc pin is refused with
    ValueError before any scan.  At the cap, ``path_graph(23)`` takes
    2.1-2.4 s, and its 203,940 window triples hold about 70 MB
    (tracemalloc; Python 3.11, 2 vCPUs); a report in which every
    orientation fails would keep about 230 MB of orientations (0.88 MB
    per 2^14, extrapolated).
    """
    m = graph.edge_count
    t0 = time.perf_counter()
    step = 2 if symmetry.fix_arc and m > 0 else 1
    total = (1 << m) // step
    if total > _MAX_ORIENTATIONS:
        raise ValueError(
            f"{total} orientations to scan, over the {_MAX_ORIENTATIONS} cap"
        )
    noncordial = tuple(Orientation(graph, bits) for bits in _failing_bits(graph, step))
    # Equal censuses share one failure tuple while a report holding it is
    # alive, so kept repeats hold one copy (Petersen lists 2^14, 0.88 MB).
    last = _live_reports.get((graph, step))
    if last is not None and last.noncordial == noncordial:
        noncordial = last.noncordial
    report = SearchReport(
        total_orientations_scanned=total,
        noncordial=noncordial,
        symmetry_mode=symmetry,
        wall_time=time.perf_counter() - t0,
    )
    _live_reports[(graph, step)] = report
    return report


def path_cordial_dp(digraph: Digraph) -> VertexLabeling | None:
    """Polynomial-time cordiality decision for an oriented path.

    The underlying graph must be the path 0 - 1 - ... - (n-1) with arcs
    listed in path order.  The answer is ``is_cordial``'s, from the
    engine's frontier DP (``_frontier_first_mask``): the first friendly
    labeling in ascending mask order, vertex 0 labeled 0, with a balanced
    triple, or None.  Unlike ``is_cordial``, which sends paths whose
    layers pass ``_DP_MAX_BITS`` to the kernel, it has no cap: the layers
    it keeps grow about as n^4, 43 MiB at n = 250 and 90 MiB at n = 300
    (tracemalloc peak; 0.13 s and 0.36 s, Python 3.11, 2 vCPUs).
    """
    n = digraph.vertex_count
    arcs = digraph.arcs
    if n < 1 or len(arcs) != n - 1:
        raise ValueError("input is not an oriented path")
    for j, (t, h) in enumerate(arcs):
        if {t, h} != {j, j + 1}:
            raise ValueError("input is not an oriented path in path order")
    mask = _frontier_first_mask(n, arcs, True)
    return None if mask is None else VertexLabeling(n, mask)


def scan_alternating_paths(n_max: int) -> list[int]:
    """Even path sizes up to n_max whose alternating orientation is not cordial.

    Arc j of ``alternating_path(n)`` depends on j alone, so every
    alternating path is a prefix of ``alternating_path(n_max)``.  One pass
    of the engine's frontier layers over that path, capped for n_max,
    reads each even prefix's verdict from the layer at its last vertex:
    pruning only drops states whose counts or ones exceed the cap, and
    counts never fall, so the prefix's own reachable states are the ones
    within its caps.  Like every DP call it pins vertex 0 to label 0,
    which complement symmetry makes exact.  An n_max whose layer of two
    bitsets would exceed the engine's ``_DP_MAX_BITS`` is refused before
    the path is built: a path vertex has one lower neighbour, so n_max
    alone sizes the layout.
    """
    if n_max < 2 or n_max % 2:
        raise ValueError("n_max must be an even integer >= 2")
    layout = _layout(n_max, n_max - 1, 1, True)
    bits = 2 * layout.size  # a path's layers hold two patterns
    if bits > _DP_MAX_BITS:
        raise ValueError(
            f"n_max={n_max} needs {bits} bits per DP layer, over the "
            f"{_DP_MAX_BITS}-bit cap"
        )
    plan = _frontier_plan(n_max, alternating_path(n_max).arcs, True)[1]
    steps = _frontier_steps(plan, layout)
    failing = []
    for n, layer in enumerate(_frontier_layers(steps, layout.valid()), start=1):
        if n % 2 == 0:
            goal = layout.goal(n, n - 1)
            if not any(s & goal for s in layer):
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

    Guarded to 1 <= n <= 6; the census size is 2^C(n,2).  The count is
    the sum of the popcounts of the census's uncovered blocks, so no
    orientation is listed; K6 has no window triple, so each of its
    blocks is counted whole.
    """
    if not 1 <= n <= 6:
        raise ValueError("tournament survey supports 1 <= n <= 6")
    g = complete_graph(n)
    noncordial = sum(left.bit_count() for _, left in _uncovered_blocks(g, 1))
    return TournamentSurvey(n=n, total=1 << g.edge_count, noncordial_count=noncordial)
