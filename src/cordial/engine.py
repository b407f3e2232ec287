"""Core (2,3)-cordiality calculus.

An arc t -> h under a (0,1) vertex labeling f receives the induced label
f(h) - f(t).  A digon-free digraph is (2,3)-cordial when some friendly
labeling (counts of 0s and 1s within one of each other) makes the counts
of +1, -1 and 0 arc labels pairwise differ by at most one.  An undirected
graph is (2,3)-orientable when some orientation is (2,3)-cordial, which
holds exactly when some friendly labeling leaves the monochromatic edge
count inside the window {floor(m/3), ceil(m/3)}; the witness orientation
is then constructed directly.  Every scan reads the window from one
table, ``_balanced(m)``: the in-window bichromatic counts, each with the
+1 counts that make the triple balanced.

Labeling scans are halved by complement symmetry: flipping every vertex
label swaps the +1 and -1 arc counts, so vertex 0 can be pinned to label
0 without changing any verdict.  Reported witnesses are therefore
normalized to label vertex 0 with 0.

``is_cordial`` and ``is_orientable`` only build their reports from the
mask of ``_first_mask``.  Unless ``_over_ceiling`` answers or refuses
an input from its counts, it hands the input to one of two searches,
chosen by an estimate of their work read off the DP's plan:

- The kernel, ``_scan_first_mask`` over ``_sliced_leaves``, tests
  friendly labelings 2^b at a time, bit-sliced (Biham 1997): lane k of
  a 2^b-bit int labels the first b vertices after vertex 0 (b = n - 1
  up to ``_MAX_LANE_BITS``) with the bits of k, so one XOR or AND of two
  ints acts on every lane, and |B| and alpha are counters kept as one
  int per binary digit.  The pairs among those vertices are counted once
  per call; the other vertices are searched depth-first, each adding
  one precomputed counter, and each leaf ANDs the friendly lanes with
  the window's equality masks.  A full scan of ``alternating_path(22)``
  takes about 0.7 ms where the per-labeling join it replaced took
  23 ms.  Memory is O(n * 2^b * log m) bits, linear in n where the
  join's low list grew as 2^(n/2).  It is the one labeling enumerator:
  the orientation census and ``search.friendly_labelings`` read its
  leaves too.
- The frontier DP (vertex separation, Kinnersley 1992), for sparse
  inputs, places the vertices in natural order and keeps one int bitset
  per label pattern of the frontier: the placed vertices that still
  have an unplaced neighbour.  Every DP call pins vertex 0 to label 0.
  Every DP caller drives its three stages: ``_frontier_plan`` reads the
  pairs in one pass, sizes the layout and yields each vertex's width and
  step key lazily; ``_frontier_layers`` alone builds steps from those
  keys and yields each vertex's step and layer; ``_frontier_walk`` alone
  walks them to a mask.  ``_first_mask`` routes on the plan's widths and
  walks only what it read, so it reads its pairs once and a
  kernel-routed call builds no step.  ``_layout`` alone knows where a
  state sits in a bitset: (ones used, alpha, beta) for digraphs, (ones
  used, lambda) for graphs, whose bitsets are so about m/3 times
  smaller.  It costs about n * (n/2) * 2^w for frontier width w: paths
  have w = 1, so ``is_cordial(alternating_path(22))`` takes about
  0.07 ms instead of the kernel's 0.7 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt
from typing import Callable, Iterable, Iterator, NamedTuple

from .graphs import (
    Digraph,
    GammaTriple,
    Graph,
    Orientation,
    VertexLabeling,
    max_edges,
    orient,
)


def arc_label(f_tail: int, f_head: int) -> int:
    """Induced label of an arc whose endpoints carry bits f_tail, f_head."""
    return f_head - f_tail


def gamma_triple(digraph: Digraph, labeling: VertexLabeling) -> GammaTriple:
    """Count arcs labeled +1, -1 and 0 under the labeling."""
    if labeling.vertex_count != digraph.vertex_count:
        raise ValueError(
            f"labeling has {labeling.vertex_count} vertices, "
            f"digraph has {digraph.vertex_count}"
        )
    mask = labeling.mask
    alpha = beta = zero = 0
    for t, h in digraph.arcs:
        d = ((mask >> h) & 1) - ((mask >> t) & 1)
        if d > 0:
            alpha += 1
        elif d < 0:
            beta += 1
        else:
            zero += 1
    return GammaTriple(alpha, beta, zero)


def is_friendly(labeling: VertexLabeling) -> bool:
    """True when the numbers of 0- and 1-labeled vertices differ by at most 1."""
    ones = labeling.ones_count
    return abs(labeling.vertex_count - 2 * ones) <= 1


def is_balanced_triple(triple: GammaTriple) -> bool:
    """True when all pairwise differences among the counts are at most 1."""
    return max(triple) - min(triple) <= 1


def lambda_count(graph: Graph, labeling: VertexLabeling) -> int:
    """Number of monochromatic edges: both endpoints share a label.

    Equals the 0-arc count of every orientation of the graph under the
    same labeling.
    """
    if labeling.vertex_count != graph.vertex_count:
        raise ValueError(
            f"labeling has {labeling.vertex_count} vertices, "
            f"graph has {graph.vertex_count}"
        )
    mask = labeling.mask
    return sum(
        1 for u, v in graph.edges if not (((mask >> u) ^ (mask >> v)) & 1)
    )


@dataclass(frozen=True, slots=True)
class LabelingReport:
    """Outcome of a labeling check on one digraph or graph."""

    labeling: VertexLabeling
    verdict: bool
    gamma: GammaTriple

    def __post_init__(self) -> None:
        expected = is_balanced_triple(self.gamma) and is_friendly(self.labeling)
        if self.verdict != expected:
            raise ValueError("verdict inconsistent with gamma and labeling")


def is_cordial(digraph: Digraph) -> LabelingReport | None:
    """Search friendly labelings for a balanced arc labeling.

    Returns the report of the first witness in ascending labeling-mask
    order (vertex 0 pinned to label 0), or None when the digraph is not
    (2,3)-cordial, without a scan when it has more arcs than max_edges(n).
    Inputs the frontier DP answers more cheaply go to it (see
    ``_first_mask``); both routes return the same witness.  Any other
    input of 32,767 vertices or more raises ValueError.
    """
    mask = _first_mask(digraph.vertex_count, digraph.arcs, True)
    if mask is None:
        return None
    labeling = VertexLabeling(digraph.vertex_count, mask)
    return LabelingReport(
        labeling=labeling, verdict=True, gamma=gamma_triple(digraph, labeling)
    )


def _first_mask(
    n: int, pairs: tuple[tuple[int, int], ...], directed: bool
) -> int | None:
    """The first mask both deciders report, or None when there is none.

    ``_over_ceiling`` answers from the counts first, or refuses.  The
    frontier DP costs about n * (n/2) * 2^w for frontier width w (bitsets
    of n/2 ones rows, 2^w patterns per vertex) and the kernel reads up to
    ``_pinned_labelings(n)`` labelings, the budget once divided by
    ``_LABELINGS_PER_DP_UNIT``.  An input whose DP would reach the budget
    even at w = 0 stays on the kernel without a plan.  Every other one
    reads the widths of ``_frontier_plan`` until one reaches the budget
    or the layers would pass ``_DP_MAX_BITS`` (kernel); otherwise
    ``_frontier_walk`` walks the plan just read.  The widths come from
    the steps' keys, so a kernel-routed input builds no step.  Both
    searches return the same mask.
    """
    if _over_ceiling(n, len(pairs)):
        return None
    budget = _pinned_labelings(n) // _LABELINGS_PER_DP_UNIT
    unit = n * (n // 2)
    if unit < budget:
        layout, plan = _frontier_plan(n, pairs, directed)
        read, bits = [], 0
        for w, key in plan:
            bits += layout.size << w
            if unit << w >= budget or bits > _DP_MAX_BITS:
                break
            read.append((w, key))
        else:
            return _frontier_walk(read, layout, layout.goal(n, len(pairs)))
    return _scan_first_mask(n, pairs, directed)


def _over_ceiling(n: int, m: int) -> bool:
    """Both deciders' size rule, from the counts alone: True ("no") when m
    pairs pass ``max_edges(n)``, else ValueError past ``_MAX_VERTICES``,
    where only the exponential kernel is left."""
    if n >= 2 and m > max_edges(n):
        return True
    _refuse_over(_DP_MAX_BITS, _least_layer_bits(n), "bits of DP layers", "{} vertices", n)
    return False


def _pinned_labelings(n: int) -> int:
    """The friendly labelings of n vertices with vertex 0 labeled 0, over
    both friendly sizes, as many as the kernel's pinned friendly lanes.
    The empty graph has one, the empty labeling."""
    if n == 0:
        return 1
    return sum(comb(n - 1, k) for k in {n // 2, (n + 1) // 2})


def _refuse_over(cap: int, number: int, what: str, size: str, of: int, log2: int = -1) -> None:
    """ValueError("<number> <what>, over the <cap> cap") when number passes
    cap.  From 2^64 on, past every cap, it reads "at least 2^k <what>
    (<size>)", ``of`` filled into the template ``size``; a count 2^k too
    large to hold comes as log2=k.  str() refuses an int of over 4,300
    digits, so a k or an ``of`` from 2^64 on is worded by its bit length."""
    k = max(log2, number.bit_length() - 1)
    if k >= 64:
        k = k if k < 1 << 64 else f"(2^{k.bit_length() - 1})"
        of = of if of < 1 << 64 else f"at least 2^{of.bit_length() - 1}"
        raise ValueError(f"at least 2^{k} {what} ({size.format(of)}), over the {cap} cap")
    if number > cap:
        raise ValueError(f"{number} {what}, over the {cap} cap")


# The most labelings a census, a quasigroup walk or ``verify_bound`` scans.
_MAX_LABELINGS = 1 << 24


def _refuse_labelings(n: int, count: Callable[[int], int]) -> None:
    """ValueError over ``_MAX_LABELINGS`` labelings of n vertices, count(n)
    of them.  Past ``_MAX_VERTICES`` that is not computed: it is at least
    C(n-1, about n/2), the largest of n terms summing to 2^(n-1)."""
    if n > _MAX_VERTICES:
        number, log2 = 0, n - 1 - (n - 1).bit_length()
    else:
        number, log2 = count(n), -1
    _refuse_over(_MAX_LABELINGS, number, "labelings to scan", "{} vertices", n, log2)


def _balanced(m: int) -> dict[int, set[int]]:
    """The balanced triples summing to m, by bichromatic count: each
    k = m - lambda with lambda in the window {floor(m/3), ceil(m/3)} maps
    to the +1 counts alpha for which (alpha, k - alpha, lambda) is
    balanced.  Three counts summing to m are pairwise within one exactly
    when each lies in the window."""
    window = {m // 3, (m + 2) // 3}
    return {m - lam: {a for a in window if m - lam - a in window} for lam in window}


def _scan_first_mask(
    n: int, pairs: tuple[tuple[int, int], ...], directed: bool
) -> int | None:
    """The first friendly mask in ascending order, vertex 0 pinned to 0,
    that passes the window test, read from the kernel's leaves: the first
    set lane of the first leaf with one.  Exhaustive: it reads every leaf
    of a "no".

    Every decider needs lambda = m - |B| in the window.  Directed: alpha =
    |P| must lie in the entry of |B| in ``_balanced(m)`` too.  Undirected:
    lambda alone, since ``construct_witness_orientation`` splits the
    bichromatic pairs evenly.
    """
    for outer, _, passing in _sliced_leaves(n, pairs, directed, True):
        if passing:
            return outer | ((passing & -passing).bit_length() - 1) << 1
    return None


# The kernel's cap on b, the vertices one int labels: 2^15 lanes, 4 KB
# per int.  Measured (Python 3.11, 2 vCPUs, min of 5) at b = 13, 14, 15
# and 16: every leaf of alternating_path(22) with vertex 0 free 6.8,
# 2.8, 2.5 and 2.6 ms; dense "no" digraphs at n = 26, 94, 54, 43 and
# 34 ms; tight_bound_graph(18) 0.76, 0.53, 0.64 and 1.4 ms.  b = 16
# wins only on the largest "no"s, is slower on small inputs, and doubles
# the tables.
_MAX_LANE_BITS = 15


def _lane_bits(n: int, pin: bool) -> int:
    """b, the vertices one lane int labels: those after the pinned one."""
    return min(max(n - pin, 0), _MAX_LANE_BITS)


@lru_cache(maxsize=_MAX_LANE_BITS + 1)
def _lane_tables(b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lanes of b vertices: lane k of a 2^b-bit int labels vertex i
    with bit i of k.  Returns X_i, the lanes where vertex i is labeled 1,
    for i < b, and the lanes with j ones for j = 0..b."""
    lanes = []
    for i in range(b):
        # 2^i clear lanes, then 2^i set ones, doubled up to 2^b lanes.
        x, width = (1 << (1 << i)) - 1 << (1 << i), 2 << i
        while width >> b == 0:
            x |= x << width
            width <<= 1
        lanes.append(x)
    by_ones = [1]
    for i in range(b):
        by_ones = [
            (x if j < len(by_ones) else 0) | (by_ones[j - 1] << (1 << i) if j else 0)
            for j, x in enumerate(by_ones + [0])
        ]
    return tuple(lanes), tuple(by_ones)


# One leaf of the kernel: the outer mask, its friendly lanes and the
# friendly lanes that pass the window test.
Leaf = tuple[int, int, int]


def _sliced_leaves(
    n: int, pairs: tuple[tuple[int, int], ...], directed: bool, pin: bool
) -> Iterator[Leaf]:
    """The friendly labelings of n vertices, 2^b per leaf, one leaf per
    outer mask in ascending order.  pin labels vertex 0 with 0.

    Lane k of a 2^b-bit int labels the inner vertices, the b =
    ``_lane_bits(n, pin)`` vertices after the pinned one, with the bits
    of k.  The outer vertices above them are searched
    depth-first from n - 1 down, label 0 first, skipping subtrees with
    too many or too few ones.  A leaf (outer, friendly, passing) stands
    for the labelings outer | k << pin with k a lane of friendly, those
    whose ones count is friendly; passing marks the ones whose |B| is a
    key of ``_balanced(m)`` and, directed, whose alpha = |P| lies in the
    entry of |B| (B: the bichromatic pairs; P: those whose head is
    labeled 1).  Every leaf has a friendly lane.

    |B| and alpha are bit-sliced counters: lists of ints whose i-th int
    holds digit i of every lane's count.  A pair's bichromatic lanes are
    the XOR of its ends' lane masks, its +1 lanes those AND the head's.
    The pairs between inner vertices are counted once per call, each
    (outer vertex, label) adds one precomputed counter of its pairs to
    inner vertices, and the pairs between outer vertices are scalars,
    subtracted from the window's targets at each leaf.  Memory is
    O(n * 2^b * log m) bits: a few counters per outer vertex.  An input
    with no outer vertex is one leaf.
    """
    lo = 1 if pin else 0
    b = _lane_bits(n, pin)
    lanes, by_ones = _lane_tables(b)
    if pin:
        lanes = (0, *lanes)
    inner = lo + b
    balanced = _balanced(len(pairs))
    sizes = {n // 2, (n + 1) // 2}
    inside, outside = [], []
    for t, h in pairs:
        if t < inner and h < inner:
            inside.append((lanes[t], lanes[h]))
        else:
            outside.append((t, h))
    bc, ac = _counters(inside, directed, len(pairs).bit_length())

    def leaf(
        outer: int, ones: int, bc: list[int], ac: list[int], add_a: list[int], sb: int, sa: int
    ) -> Leaf:
        # The alpha counter is ac + add_a, summed only once a lane's |B|
        # is in the window.
        friendly = 0
        for size in sizes:
            if 0 <= size - ones <= b:
                friendly |= by_ones[size - ones]
        passing = 0
        for k, alphas in balanced.items():
            hit = _equal(bc, k - sb, friendly)
            if hit and directed:
                ac, add_a = _add(ac, add_a), []
                # Lanes of distinct alphas are disjoint: the sum is their OR.
                hit = sum(_equal(ac, a - sa, hit) for a in alphas)
            passing |= hit
        return outer, friendly, passing

    if inner >= n:
        yield leaf(0, 0, bc, ac, [], 0, 0)
        return

    full = (1 << (1 << b)) - 1
    # Outer vertex v's pairs: up[v] lists (w, v is the head) for outer
    # w > v; adds[v][y] is the counters of its pairs to inner vertices
    # when v is labeled y.
    up: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    near: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for t, h in outside:
        if t >= inner and h >= inner:
            v, w = min(t, h), max(t, h)
            up[v].append((w, v == h))
        elif t >= inner:
            near[t].append((lanes[h], False))
        else:
            near[h].append((lanes[t], True))
    adds = {
        v: [
            _counters(
                [(u, y) if head else (y, u) for u, head in near[v]],
                directed,
                len(near[v]).bit_length(),
            )
            for y in (0, full)
        ]
        for v in range(inner, n)
    }
    min_ones, max_ones = n // 2, (n + 1) // 2

    # A stack of labels still to try, (v, y, *state before v), where the
    # state is (outer, ones, |B| counter, alpha counter, scalar |B|,
    # scalar alpha): label 0 is popped before label 1, so leaves come in
    # ascending order.  A stack, not a recursive closure, whose cycle
    # would keep the counters alive until the cyclic collector ran.
    state = (0, 0, bc, ac, 0, 0)
    stack = [(n - 1, 1, *state), (n - 1, 0, *state)]
    while stack:
        v, y, outer, ones, bc, ac, sb, sa = stack.pop()
        # v - lo vertices below v are left to label.
        if ones + y > max_ones or ones + y + v - lo < min_ones:
            continue
        for w, head in up[v]:
            x = outer >> w & 1
            if x != y:
                sb += 1
                sa += y if head else x
        add_b, add_a = adds[v][y]
        outer, ones, bc = outer | y << v, ones + y, _add(bc, add_b)
        if v == inner:
            yield leaf(outer, ones, bc, ac, add_a, sb, sa)
        else:
            state = (outer, ones, bc, _add(ac, add_a), sb, sa)
            stack += [(v - 1, 1, *state), (v - 1, 0, *state)]


def _counters(
    masks: Iterable[tuple[int, int]], directed: bool, digits: int
) -> tuple[list[int], list[int]]:
    """The bit-sliced |B| and (directed) alpha counters, with ``digits``
    digits, of the pairs given as (tail lanes, head lanes)."""
    bc = [0] * digits
    ac = [0] * digits if directed else []
    for lt, lh in masks:
        x = lt ^ lh
        plus = x & lh if directed else 0
        i = 0
        while x:
            bc[i], x = bc[i] ^ x, bc[i] & x
            i += 1
        i = 0
        while plus:
            ac[i], plus = ac[i] ^ plus, ac[i] & plus
            i += 1
    return bc, ac


def _add(x: list[int], y: list[int]) -> list[int]:
    """The bit-sliced sum x + y, with x's digits; no lane may overflow."""
    if not any(y):
        return x
    out = x[:]
    carry = 0
    for i, d in enumerate(y):
        s = out[i]
        t = s ^ d
        out[i] = t ^ carry
        carry = (s & d) | (carry & t)
    i = len(y)
    while carry:
        s = out[i]
        out[i] = s ^ carry
        carry &= s
        i += 1
    return out


def _equal(counter: list[int], value: int, lanes: int) -> int:
    """The lanes among ``lanes`` whose count in ``counter`` is value."""
    if value < 0 or value >> len(counter):
        return 0
    for i, d in enumerate(counter):
        lanes &= d if value >> i & 1 else ~d
        if not lanes:
            break
    return lanes


@dataclass(frozen=True, slots=True)
class OrientabilityWitness:
    """A friendly labeling plus an orientation with balanced arc counts."""

    labeling: VertexLabeling
    orientation: Orientation
    gamma: GammaTriple

    def __post_init__(self) -> None:
        if not is_friendly(self.labeling):
            raise ValueError("witness labeling is not friendly")
        if not is_balanced_triple(self.gamma):
            raise ValueError("witness gamma is not balanced")
        recomputed = gamma_triple(
            orient(self.orientation.graph, self.orientation), self.labeling
        )
        if recomputed != self.gamma:
            raise ValueError("witness gamma does not match its orientation")


def construct_witness_orientation(
    graph: Graph, labeling: VertexLabeling
) -> Orientation:
    """Orient a graph so the arc-label counts come out balanced.

    Requires a friendly labeling whose monochromatic edge count lies in
    {floor(m/3), ceil(m/3)}.  The bichromatic edges, in canonical order,
    are oriented so the first ceil(m'/2) of them run from the 0-labeled
    endpoint to the 1-labeled one (+1 arcs) and the rest the other way;
    monochromatic edges run low index to high.  The result has gamma =
    (ceil(m'/2), floor(m'/2), lambda), balanced whenever the
    precondition holds.
    """
    if not is_friendly(labeling):
        raise ValueError("labeling is not friendly")
    m = graph.edge_count
    lam = lambda_count(graph, labeling)
    if m - lam not in _balanced(m):
        raise ValueError(
            f"monochromatic count {lam} outside the balanced window for m={m}"
        )
    mask = labeling.mask
    plus_quota = (m - lam + 1) // 2
    bi_seen = 0
    bits = 0
    for j, (u, v) in enumerate(graph.edges):
        fu = (mask >> u) & 1
        fv = (mask >> v) & 1
        if fu == fv:
            continue
        bi_seen += 1
        want_plus = bi_seen <= plus_quota
        # A +1 arc must point at the 1-labeled endpoint.
        if want_plus != (fv == 1):
            bits |= 1 << j
    return Orientation(graph, bits)


def is_orientable(graph: Graph) -> OrientabilityWitness | None:
    """Decide (2,3)-orientability and build a constructive witness.

    The witness comes from the first friendly labeling (vertex 0 pinned
    to 0) in ascending mask order whose monochromatic edge count lands in
    the balanced window.  A graph with more edges than max_edges(n) is
    answered None without a scan; inputs the frontier DP answers more
    cheaply go to it (see ``_first_mask``), with the same witness.  Any
    other graph of 32,767 vertices or more raises ValueError.
    """
    mask = _first_mask(graph.vertex_count, graph.edges, False)
    if mask is None:
        return None
    labeling = VertexLabeling(graph.vertex_count, mask)
    o = construct_witness_orientation(graph, labeling)
    # The construction's gamma; the witness recomputes it once to check.
    lam = lambda_count(graph, labeling)
    k = graph.edge_count - lam
    return OrientabilityWitness(labeling, o, GammaTriple((k + 1) // 2, k // 2, lam))


# Kernel labelings per unit of the DP's estimate below which the kernel
# keeps an input.  Measured (Python 3.11, 2 vCPUs, min of 3): the DP
# takes 0.04-0.10 us per unit on banded inputs with n = 16..30, and a
# full scan of the sliced kernel 86, 30, 13.5 and 7.4 ns per labeling on
# dense "no" digraphs with n = 14, 18, 20 and 26 (a leaf costs about the
# same however few of its lanes are friendly).  So a DP unit costs about
# 1-14 kernel labelings, where it cost 0.25-0.75 labelings of the
# per-labeling join this value was set for; it stays 16 so that every
# input keeps its route.
_LABELINGS_PER_DP_UNIT = 16
# The DP keeps every layer for its witness walk; inputs whose layers
# would exceed this many bits (64 MiB) stay with the kernel, which runs
# longer but in little memory.
_DP_MAX_BITS = 1 << 29


Shifts = tuple[tuple[int, int], tuple[int, int]]


class _Layout(NamedTuple):
    """Where the frontier DP keeps a state in a pattern's bitset.

    Directed: bit ones * one + alpha * width + beta marks ones label-1
    vertices, a +1 count alpha and a -1 count beta, with one = width^2:
    a 0 -> 1 arc shifts by a row, a 1 -> 0 arc by one bit.  Undirected:
    bit ones * one + lambda with one = width, and a pair whose ends share
    a label adds one to the monochromatic count lambda.  ``shifts`` is a
    pair's shift by [tail label][head label].  Counts are kept up to cap
    and ones up to max_ones, and a bitset has at most ``size`` bits.
    """

    directed: bool
    cap: int
    max_ones: int
    width: int
    one: int
    shifts: Shifts
    size: int

    def valid(self) -> int:
        """The bits of the states kept."""
        block = (1 << (self.cap + 1)) - 1
        if self.directed:
            block = sum(block << (a * self.width) for a in range(self.cap + 1))
        return sum(block << (k * self.one) for k in range(self.max_ones + 1))

    def goal(self, n: int, m: int) -> int:
        """The bits of the friendly, balanced states of n vertices and m pairs."""
        balanced = _balanced(m)
        if self.directed:
            counts = sum(
                1 << (a * self.width + k - a) for k in balanced for a in balanced[k]
            )
        else:
            counts = sum(1 << (m - k) for k in balanced)
        return sum(counts << (ones * self.one) for ones in {n // 2, (n + 1) // 2})


def _layout(n: int, m: int, links: int, directed: bool) -> _Layout:
    """The layout of n vertices and m pairs, capped at ceil(m/3) and
    ceil(n/2), the caps of every prefix too.  Spare rows and columns
    hold links, the most pairs one vertex has towards lower vertices, so
    a vertex's combined shift never carries into the next row or block
    before ``valid`` clears it.  O(1): ``valid`` and ``goal`` are built
    only when called."""
    cap = (m + 2) // 3
    max_ones = (n + 1) // 2
    width = cap + 1 + links
    one = width * width if directed else width
    shifts = ((0, width), (1, 0)) if directed else ((1, 0), (0, 1))
    return _Layout(directed, cap, max_ones, width, one, shifts, (max_ones + 1) * one)


def _least_layer_bits(n: int) -> int:
    """The bits of the DP layers of n vertices and no pair, the fewest of
    any input of n vertices: no layout is smaller than the one of no pair."""
    return n * _layout(n, 0, 0, False).size


# The most vertices any scan reads, 32,766: past it even the layers of
# no pair, about n^2 / 2 bits, pass ``_DP_MAX_BITS``.
_MAX_VERTICES = next(
    n for n in range(isqrt(2 * _DP_MAX_BITS), 0, -1) if _least_layer_bits(n) <= _DP_MAX_BITS
)


# One vertex's step, its moves: each (q, sources) lists the (p, x, shift)
# that send frontier pattern p before the vertex, labeled x, to pattern q
# after it, shifting the bitset by shift.
Step = tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]
# What a step is built from: ``_frontier_step``'s first four arguments.
StepKey = tuple[tuple[bool, ...], bool, tuple[tuple[int, bool], ...], bool]


def _frontier_plan(
    n: int, pairs: tuple[tuple[int, int], ...], directed: bool
) -> tuple[_Layout, Iterator[tuple[int, StepKey]]]:
    """The frontier DP's one pass over the pairs: the layout of n vertices
    and the pairs, and a lazy iterator over (w', key) for each vertex i in
    natural order, w' its frontier width after i and key what its step is
    built from (``_frontier_layers``), so a caller can stop at the first
    vertex too wide without building a step.

    The pass finds each vertex's highest neighbour (the vertex itself if
    none is higher) and its lower neighbours u, as (u, whether u is the
    pair's tail), in pair order.  The frontier before vertex i is the
    vertices below i with a neighbour at i or above, in ascending order;
    a pattern p gives the k-th of them label bit k of p.  Labeling i with
    x shifts a bitset by x * one (one more 1) plus the layout's shift for
    each pair joining i to a lower vertex.  Every plan pins vertex 0 to
    label 0.
    """
    last = list(range(n))
    lower: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for t, h in pairs:
        if t < h:
            lower[h].append((t, True))
            if h > last[t]:
                last[t] = h
        else:
            lower[t].append((h, False))
            if t > last[h]:
                last[h] = t
    layout = _layout(n, len(pairs), max(map(len, lower), default=0), directed)

    def plan() -> Iterator[tuple[int, StepKey]]:
        frontier: list[int] = []
        for i in range(n):
            # Tuples from lists: see graphs.orient.
            key = (
                tuple([last[v] > i for v in frontier]),
                last[i] > i,
                tuple([(frontier.index(u), u_is_tail) for u, u_is_tail in lower[i]]),
                i == 0,
            )
            frontier = [v for v in frontier if last[v] > i]
            if last[i] > i:
                frontier.append(i)
            yield len(frontier), key

    return layout, plan()


# The widest frontier whose steps ``_frontier_step`` keeps, at most 128
# of them with at most 2^7 sources each.  The 1,022 oriented paths of
# verify's path-dp-crosscheck share 15 steps: their DP loop took 66 ms
# with steps built per call and 41-46 ms with kept ones.
_CACHED_STEP_WIDTH = 6


@lru_cache(maxsize=128)
def _frontier_step(
    stay: tuple[bool, ...],
    joins: bool,
    links: tuple[tuple[int, bool], ...],
    pinned: bool,
    shifts: Shifts,
    one: int,
) -> Step:
    """One vertex's step: ``stay`` tells which frontier vertices stay in
    it, ``joins`` whether the vertex joins it, and ``links`` gives the
    (frontier position, is tail) of the vertex's lower neighbours.  The
    step is built of tuples, since calls share it."""
    kept = [k for k, s in enumerate(stay) if s]
    moves: dict[int, list[tuple[int, int, int]]] = {}
    for x in (0,) if pinned else (0, 1):
        for p in range(1 << len(stay)):
            shift = x * one
            for k, tail in links:
                shift += shifts[p >> k & 1][x] if tail else shifts[x][p >> k & 1]
            q = x << len(kept) if joins else 0
            for j, k in enumerate(kept):
                q |= (p >> k & 1) << j
            moves.setdefault(q, []).append((p, x, shift))
    return tuple((q, tuple(s)) for q, s in moves.items())


def _frontier_layers(
    plan: Iterable[tuple[int, StepKey]], layout: _Layout
) -> Iterator[tuple[Step, list[int]]]:
    """Each vertex's step, built from its (w', key) in ``plan``, and the
    reachable states after it.  Vertices whose frontier looks the same
    share one step (the inner vertices of a path use two); steps of
    frontiers up to ``_CACHED_STEP_WIDTH`` wide are shared across calls
    too, and a wider one, with up to 2^(w + 1) sources, per call only.

    Entry p of the layer after vertex i is one int over (ones, counts):
    its bits mark what the labelings of vertices 0..i with frontier
    labels p reach.  ``layout.valid()`` masks the ones and counts kept
    (the caps), so a vertex is a shift, an OR and a mask per pattern.
    Counts never fall and ones never exceed its cap in a friendly
    labeling, so pruning loses no completion.  Each layer is a new list.
    """
    valid = layout.valid()
    known: dict[StepKey, Step] = {}
    layer = [1]
    # Read whole first: resuming the plan between layers ran 3-4% slower.
    for w2, key in list(plan):
        step = known.get(key)
        if step is None:
            build = _frontier_step
            if len(key[0]) > _CACHED_STEP_WIDTH:
                build = _frontier_step.__wrapped__
            step = known[key] = build(*key, layout.shifts, layout.one)
        nxt = [0] * (1 << w2)
        for q, sources in step:
            reached = 0
            for p, _, shift in sources:
                reached |= layer[p] << shift
            nxt[q] = reached & valid
        layer = nxt
        yield step, layer


def _frontier_walk(
    plan: Iterable[tuple[int, StepKey]], layout: _Layout, goal: int
) -> int | None:
    """The first friendly mask in ascending order, vertex 0 pinned to 0,
    whose states after the last vertex of ``plan`` meet ``goal``.  It
    keeps every step and layer of ``_frontier_layers``.

    The first mask is found by walking from the last vertex down with one
    target bitset per frontier pattern (the reachable ones and counts
    that still complete to a friendly labeling with a balanced triple,
    given the labels already fixed), choosing label 0 whenever a
    reachable state meets its target.  Every target bit is a valid state
    and a vertex's shift never carries out of one, so before & (target
    >> shift) is exactly the reachable states that the vertex's label
    takes into the target: no re-mask is needed.
    """
    walked = list(_frontier_layers(plan, layout))
    layers = [[1]] + [layer for _, layer in walked]
    target = [goal]
    if not layers[-1][0] & goal:
        return None
    mask = 0
    for i in range(len(walked) - 1, -1, -1):
        before = layers[i]
        for label in (0, 1):
            pulled = [0] * len(before)
            for q, sources in walked[i][0]:
                for p, x, shift in sources:
                    if x == label:
                        pulled[p] = before[p] & (target[q] >> shift)
            if any(pulled):
                break
        else:
            raise AssertionError("frontier DP walk lost a state")
        mask |= label << i
        target = pulled
    return mask
