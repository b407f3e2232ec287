"""Exhaustive enumeration of labelings and orientations, with symmetry
reduction, a polynomial dynamic program for oriented paths, and small
census routines (alternating-path scan, tournament survey).

Orientation enumeration is ascending over the bit-vector integers; arc
reversal symmetry pins bit 0 to 0 and halves the range, complement
symmetry pins vertex 0's label to 0 and halves the labeling scan.  The
orientation census reads labelings once per graph, not once per
orientation, folding them into tables per high (P, B); it then scans
blocks of 2^6 orientations, each held as one int, OR-ing per block one
entry of each table until the block is full: see
``noncordial_orientations``.  A report keeps its failures as one int and
builds ``Orientation`` objects only when they are read.

The path DP is the engine's frontier DP, whose layers on a path keep one
bitset per label of the last vertex over the reachable (ones used, +1
count, -1 count), laid out by the engine's ``_layout``, so an arc is a
shift of the whole set, not a loop over states.  ``path_cordial_dp``
checks the path order and returns the witness of the engine's one mask
walk, ``_frontier_walk``, without ``is_cordial``'s layer cap.  Arc j of
an alternating path depends on j alone, so ``alternating_path(n)`` is
the first n vertices of any longer one, and ``scan_alternating_paths``
reads every size's verdict from one pass of ``_frontier_layers``.
"""

from __future__ import annotations

import enum
import functools
import time
from dataclasses import InitVar, dataclass, field
from itertools import compress, count
from math import comb
from typing import Iterable, Iterator

from .engine import (
    _DP_MAX_BITS,
    _balanced,
    _frontier_layers,
    _frontier_plan,
    _frontier_walk,
    _lane_bits,
    _layout,
    _pinned_labelings,
    _refuse_labelings,
    _refuse_over,
    _sliced_leaves,
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
    for outer, friendly, _ in _sliced_leaves(n, (), False, fix_first_label):
        for k in compress(count(), _set_bits(friendly)):
            yield VertexLabeling(n, outer | k << fix_first_label)


_BINARY = bytes.maketrans(b"01", b"\0\1")


def _set_bits(x: int) -> bytes:
    """Selectors for ``itertools.compress``: byte i is 1 when bit i of x
    is set.  One pass over bin(x); peeling bits off x copies it per bit."""
    return bin(x)[:1:-1].encode().translate(_BINARY)


def orientations(graph: Graph, fix_first_arc: bool = False) -> Iterator[Orientation]:
    """All orientations of a graph as ascending bit-vector integers.

    With fix_first_arc, bit 0 is pinned to 0 (arc reversal symmetry),
    yielding 2^(m-1) orientations instead of 2^m.
    """
    m = graph.edge_count
    step = 2 if fix_first_arc and m > 0 else 1
    for bits in range(0, 1 << m, step):
        yield Orientation(graph, bits)


@dataclass(frozen=True, slots=True)
class SearchReport:
    """Result of a non-cordial-orientation hunt over one graph.

    ``failing`` holds the census's failures as one int: bit b is set when
    orientation b of ``graph`` has no cordial labeling.  It is left out of
    the repr, which past 2^14 orientations would pass Python's 4,300-digit
    limit for int-to-str conversion.  Equality compares the graph, the
    count scanned, the failures and the mode, not ``wall_time``.

    ``noncordial`` is a read-only property that builds the failures as an
    ascending tuple of ``Orientation`` on each read; it is not cached, so
    a kept report holds only its int.  Passing ``noncordial`` to the
    constructor, as ``dataclasses.replace(report, noncordial=...)`` does,
    sets ``failing`` from the orientations' bits instead.
    """

    graph: Graph
    total_orientations_scanned: int
    failing: int = field(repr=False)
    symmetry_mode: SymmetryMode
    wall_time: float = field(compare=False)
    noncordial: InitVar[tuple[Orientation, ...] | None] = None

    def __post_init__(self, noncordial: tuple[Orientation, ...] | None) -> None:
        if noncordial is not None:
            blocks = ((o.bits, 1) for o in noncordial)
            object.__setattr__(self, "failing", _pack(self.graph.edge_count, blocks))


def _orientations_of(report: SearchReport) -> tuple[Orientation, ...]:
    """The failing orientations, ascending."""
    bits = compress(count(), _set_bits(report.failing))
    return tuple(Orientation(report.graph, b) for b in bits)


# Set after the class, so that the dataclass keeps None, not the property,
# as the default of the ``noncordial`` init argument.
SearchReport.noncordial = property(_orientations_of)  # type: ignore[assignment]


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


def _decode_tables(n: int, edges: tuple[tuple[int, int], ...], c: int) -> tuple:
    """``_window_chunks``' tables: the edges at and the edges headed by
    each vertex, as masks, and the (B, H) of each labeling of the first c
    lane vertices (lows) and of the other lane vertices (highs)."""
    incident, heads = [0] * n, [0] * n
    for j, (u, v) in enumerate(edges):
        incident[u] ^= 1 << j
        incident[v] ^= 1 << j
        heads[v] ^= 1 << j
    lows, highs = [(0, 0)], [(0, 0)]
    # Lane bit v - 1 labels vertex v.
    for v in range(1, 1 + _lane_bits(n, True)):
        half = lows if v <= c else highs
        half += [(x ^ incident[v], y ^ heads[v]) for x, y in half]
    return incident, heads, lows, highs


def _window_chunks(n: int, edges: tuple[tuple[int, int], ...]) -> Iterator[tuple]:
    """The passing lanes of ``_sliced_leaves(n, edges, False, True)``
    (friendly, vertex 0 labeled 0, |B| a key of ``_balanced(m)``) as
    (bh, hh, lows), one per run of lanes sharing a high index: each lane's
    B is bh ^ bl and H (the edges whose head v is labeled 1) is hh ^ hl
    over the (bl, hl) of ``lows``, which ``itertools.compress`` picks
    from the low table by the run's digits.  A leaf's outer vertices are
    XOR-ed into bh and hh.  The tables are built at the first passing
    leaf, so a graph that misses the window, like K6, builds none.
    """
    c = (_lane_bits(n, True) + 1) // 2
    run = 1 << c
    lows = None
    for outer, _, passing in _sliced_leaves(n, edges, False, True):
        if not passing:
            continue
        if lows is None:
            incident, heads, lows, highs = _decode_tables(n, edges, c)
        ob = oh = 0
        for v in compress(count(), _set_bits(outer)):
            ob, oh = ob ^ incident[v], oh ^ heads[v]
        digits = _set_bits(passing)
        for start in range(0, len(digits), run):
            chunk = digits[start : start + run]
            if 1 in chunk:
                bh, hh = highs[start >> c]
                yield bh ^ ob, hh ^ oh, compress(lows, chunk)


def _uncovered_blocks(
    graph: Graph, step: int, width: int = _BLOCK_BITS
) -> Iterator[tuple[int, int]]:
    """(base, mask) per block of 2^w orientations, w = min(width, m), that
    keeps a failure, in ascending base: bit i of mask is set when
    orientation base + i is a step-th one that no labeling certifies.

    A labeling's B marks its bichromatic edges and P those whose u -> v
    arc is +1, so orientation o gets alpha = popcount((o ^ P) & B),
    beta = |B| - alpha and lambda = m - |B|, so the allowed alphas depend
    on |B| alone: ``_balanced(m)`` lists them.  Each distinct (P, B) of
    the labelings that ``_window_chunks`` reads is folded in as it is
    read: alpha splits at edge bit w into a high count, fixed by the
    block, and a low count, so per high count the pair certifies the low
    set that ``_count_sets`` gives, OR-ed into the table of its high
    (P, B).  A block ORs one entry per table and stops once it is full; a
    graph whose labelings all miss the window yields every block whole.
    """
    m = graph.edge_count
    w = min(width, m)
    full = (1 << (1 << w)) - 1
    # With the arc pinned, odd orientations start out covered.
    skip = sum(1 << i for i in range(1, 1 << w, 2)) if step == 2 else 0
    low = (1 << w) - 1
    allowed = _balanced(m)
    seen: set[tuple[int, int]] = set()
    counts: dict[tuple[int, int], list[int]] = {}
    tables: dict[tuple[int, int], list[int]] = {}
    for bh, hh, lows in _window_chunks(graph.vertex_count, graph.edges):
        for bl, hl in lows:
            bi = bh ^ bl
            plus = bi & (hh ^ hl)
            if (plus, bi) in seen:
                continue
            seen.add((plus, bi))
            key = (plus & low, bi & low)
            if key not in counts:
                counts[key] = _count_sets(*key, w)
            sets = counts[key]
            high = bi >> w
            table = tables.setdefault((plus >> w, high), [0] * (high.bit_count() + 1))
            for a in allowed[bi.bit_count()]:
                for h in range(len(table)):
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


def _pack(m: int, blocks: Iterable[tuple[int, int]]) -> int:
    """One int over the 2^m orientations from (base, mask) blocks: bit
    base + i is set when bit i of the mask is.

    A block of up to 64 orientations at a multiple of its size lies in
    one 64-bit word, so each is OR-ed into a list of words and the words
    are joined once; OR-ing each block into one growing int would copy it
    per block.
    """
    words = [0] * -(-(1 << m) // 64)
    for base, left in blocks:
        words[base >> 6] |= left << (base & 63)
    return int.from_bytes(b"".join(w.to_bytes(8, "little") for w in words), "little")


def _census_size(n: int, m: int, fix_arc: bool) -> tuple[int, int]:
    """The census's size rule, from the counts alone: the step (2 when the
    arc is pinned, m >= 1) and the 2^m / step orientations it scans,
    refused over 2^22 of them or over 2^24 pinned labelings (n >= 27)."""
    step = 2 if fix_arc and m > 0 else 1
    k = m - (step == 2)
    total = 1 << min(k, 64)
    _refuse_over(_MAX_ORIENTATIONS, total, "orientations to scan", "{} edges", m, k)
    _refuse_labelings(n, _pinned_labelings)
    return step, total


@functools.lru_cache(maxsize=1)
def _every_orientation(m: int, step: int) -> int:
    """The failures of a census whose step-th orientations of m edges all
    fail: all 2^m bits, or with the arc pinned the even ones, a third."""
    every = (1 << (1 << m)) - 1
    return every if step == 1 else every // 3


def noncordial_orientations(
    graph: Graph,
    symmetry: SymmetryMode = SymmetryMode.NONE,
    jobs: int | None = None,
) -> SearchReport:
    """Enumerate orientations and collect those with no cordial labeling.

    Every orientation's 0-arc count is the labeling's monochromatic count
    lambda, so only labelings with lambda in {floor(m/3), ceil(m/3)} can
    certify any orientation, and a graph without them fails everywhere.
    Pinning vertex 0's label is exact: a labeling and its complement
    share B and lambda, and complementing maps alpha to |B| - alpha,
    under which the allowed set is closed.  So only the arc pin changes
    the result.  ``_uncovered_blocks`` reads the labelings once and scans
    the orientations in blocks of 2^6: one OR per high (P, B) certifies
    up to 64 of them at once, and a block stops at the first OR that
    fills it.  ``_pack`` packs the blocks left into the report's
    ``failing`` int, and no ``Orientation`` is built until
    ``report.noncordial`` is read; ``jobs`` is accepted and ignored.
    Censuses of one size that fail everywhere share one cached int.

    ``_census_size`` sizes the census before any scan.  At the
    orientation cap, ``path_graph(23)`` takes about 0.8 s and peaks at
    54 MB, mostly its 203,940 distinct (P, B) (tracemalloc; Python 3.11,
    2 vCPUs).  There a report keeps one 512 KB int, and each read of
    ``noncordial`` builds its orientations anew (0.88 MB and about 25 ms
    per 2^14 of them).
    """
    m = graph.edge_count
    t0 = time.perf_counter()
    step, total = _census_size(graph.vertex_count, m, symmetry.fix_arc)
    failing = _pack(m, _uncovered_blocks(graph, step))
    if failing.bit_count() == total:
        failing = _every_orientation(m, step)
    return SearchReport(
        graph=graph,
        total_orientations_scanned=total,
        failing=failing,
        symmetry_mode=symmetry,
        wall_time=time.perf_counter() - t0,
    )


def path_cordial_dp(digraph: Digraph) -> VertexLabeling | None:
    """Polynomial-time cordiality decision for an oriented path.

    The underlying graph must be the path 0 - 1 - ... - (n-1) with arcs
    listed in path order.  The answer is ``is_cordial``'s, the first
    friendly labeling in ascending mask order, vertex 0 labeled 0, with a
    balanced triple, or None, from ``_frontier_walk`` over the whole plan.
    Unlike ``is_cordial``, which sends paths whose layers pass
    ``_DP_MAX_BITS`` to the kernel, it has no cap: the layers it keeps
    grow about as n^4, 43 MiB at n = 250 and 90 MiB at n = 300
    (tracemalloc peak; 0.13 s and 0.36 s, Python 3.11, 2 vCPUs).
    """
    n = digraph.vertex_count
    arcs = digraph.arcs
    if n < 1 or len(arcs) != n - 1:
        raise ValueError("input is not an oriented path")
    for j, (t, h) in enumerate(arcs):
        if {t, h} != {j, j + 1}:
            raise ValueError("input is not an oriented path in path order")
    layout, plan = _frontier_plan(n, arcs, True)
    mask = _frontier_walk(plan, layout, layout.goal(n, n - 1))
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
    which complement symmetry makes exact.  An n_max whose two-bitset
    layer would pass ``_DP_MAX_BITS`` is refused before the path is
    built: a path vertex has one lower neighbour, so n_max sizes it.
    """
    if n_max < 2 or n_max % 2:
        raise ValueError("n_max must be an even integer >= 2")
    layout = _layout(n_max, n_max - 1, 1, True)
    bits = 2 * layout.size  # a path's layers hold two patterns
    _refuse_over(_DP_MAX_BITS, bits, "bits per DP layer", "n_max of {} bits", n_max.bit_length())
    plan = _frontier_plan(n_max, alternating_path(n_max).arcs, True)[1]
    failing = []
    for n, (_, layer) in enumerate(_frontier_layers(plan, layout), start=1):
        if n % 2 == 0:
            goal = layout.goal(n, n - 1)
            if not any(s & goal for s in layer):
                failing.append(n)
    return failing


@dataclass(frozen=True, slots=True)
class TournamentSurvey:
    """Census of cordiality over all labeled tournaments on n vertices."""

    n: int
    total: int
    noncordial_count: int


def tournament_survey(n: int) -> TournamentSurvey:
    """Check every orientation of the complete graph on n vertices.

    The census's ``_census_size`` sizes K_n before it is built, so n >= 8
    is refused; so is n < 1.  The count sums the popcounts of the
    census's uncovered blocks.  From n = 6 on K_n passes the edge
    ceiling, so no labeling reaches the window: every block counts whole.
    """
    _, total = _census_size(n, comb(n, 2), False)
    g = complete_graph(n)
    noncordial = sum(left.bit_count() for _, left in _uncovered_blocks(g, 1))
    return TournamentSurvey(n=n, total=total, noncordial_count=noncordial)
