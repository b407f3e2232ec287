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
mask of ``_first_mask``.  It applies the certificates first (an input
with more edges than ``max_edges(n)`` is answered None without a scan)
and hands every other input to one of two searches with one contract,
``(n, pairs, directed) -> first mask or None``, chosen by an estimate
of their work read off the DP's own plan:

- The kernel, ``_scan_first_mask`` over ``_labelings``, enumerates
  friendly labelings and tests lambda against the window first.  It lists
  the label-1 subsets of the low half of the vertices once per call,
  with the XORs of their incidence and head masks, walks the high half's
  subsets in ascending order the same way, and hands each with the low
  subsets of fitting size to its reader as one batch.  The reader joins
  them inline: one XOR and one popcount per labeling (lambda from
  B = bh ^ bl), the heads mask H = hh ^ hl only inside the window, where
  a directed scan looks |P| up for P = B & H, and the mask mh | ml only
  for a labeling it keeps; there is no per-edge loop.  Only the low list is
  stored: 2^(ceil(n/2) - 1) tuples with vertex 0 pinned, 0.16 MB at
  n = 22 and 22 MB at n = 36 (tracemalloc).  Every other labeling scan
  reads it too.
- The frontier DP (vertex separation, Kinnersley 1992), for sparse
  inputs, places the vertices in natural order and keeps one int bitset
  per label pattern of the frontier: the placed vertices that still
  have an unplaced neighbour.  Every DP call pins vertex 0 to label 0.
  ``_frontier_plan`` reads the pairs in one pass, sizes the layout and
  yields each vertex's width and step key lazily; ``_first_mask`` routes
  on those widths, and only a DP-routed call builds the steps, from the
  keys it read, so it reads its pairs once and a kernel-routed call
  builds no step.  ``_layout`` alone knows where a state sits
  in a bitset: (ones used, alpha, beta) for digraphs, (ones used,
  lambda) for graphs, whose bitsets are so about m/3 times smaller.
  It costs about n * (n/2) * 2^w for frontier width w: paths have
  w = 1, so ``is_cordial(alternating_path(22))`` takes under 1 ms
  instead of the kernel's 0.1 s.  Its witness walk,
  ``_frontier_walk``, is also ``search.path_cordial_dp``'s, and
  ``_frontier_layers`` the layer builder of
  ``search.scan_alternating_paths``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, NamedTuple

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


# One labeling batch: a high-half subset (mh, bh, hh) and the ascending
# (ml, bl, hl) of every low-half subset of fitting size.
Batch = tuple[int, int, int, list[tuple[int, int, int]]]


def _labelings(
    n: int, pairs: tuple[tuple[int, int], ...], pin: bool = True
) -> Iterator[Batch]:
    """The friendly labelings of n vertices, one batch per subset of the
    high half of the vertices, in ascending order of its mask mh.

    A subset of vertices carries its mask, B (the pairs with exactly one
    end in it) and H (the pairs whose head h is in it).  The batch of mh
    lists the low-half subsets whose sizes make mh | ml friendly, in
    ascending ml, so reading each batch's list in turn gives the masks
    mh | ml in ascending order.  The labeling's B = bh ^ bl marks the
    pairs (t, h) whose ends differ in label and H = hh ^ hl those whose
    head is labeled 1, so P = B & H marks the bichromatic pairs with h
    labeled 1 and arcs ``pairs`` get alpha = |P|, beta = |B| - |P| and
    gamma_0 = lambda = m - |B|.  A reader joins each batch inline: one
    XOR and one popcount per labeling for lambda, the heads mask only
    for labelings whose lambda lies in the window (undirected readers
    never), and the mask only for labelings it keeps.  Every batch with
    the same number of high ones shares one list, which readers must not
    change.  pin labels vertex 0 with 0, keeping one labeling of each
    complement pair.
    """
    incident = [0] * n
    head = [0] * n
    for j, (t, h) in enumerate(pairs):
        incident[t] ^= 1 << j
        incident[h] ^= 1 << j
        head[h] ^= 1 << j

    def subsets(vertices: range) -> Iterator[tuple[int, int, int]]:
        # flips[i] XORs the first i vertices; the k-th subset in ascending
        # order differs from the (k-1)-th in the first (k & -k).bit_length().
        flips = [(0, 0, 0)]
        for v in vertices:
            mask, b, hh = flips[-1]
            flips.append((mask | 1 << v, b ^ incident[v], hh ^ head[v]))
        mask = b = hh = 0
        for k in range(1 << len(vertices)):
            if k:
                fm, fb, fh = flips[(k & -k).bit_length()]
                mask, b, hh = mask ^ fm, b ^ fb, hh ^ fh
            yield mask, b, hh

    half = (n + 1) // 2
    lows = list(subsets(range(1 if pin else 0, half)))
    sizes = {n // 2, (n + 1) // 2}
    fitting = [
        [low for low in lows if low[0].bit_count() + k in sizes]
        for k in range(n - half + 1)
    ]
    for mh, bh, hh in subsets(range(half, n)):
        yield mh, bh, hh, fitting[mh.bit_count()]


@dataclass(frozen=True)
class LabelingReport:
    """Outcome of a labeling check on one digraph or graph."""

    labeling: VertexLabeling
    verdict: bool
    gamma: GammaTriple | None = None

    def __post_init__(self) -> None:
        if self.gamma is not None:
            expected = is_balanced_triple(self.gamma) and is_friendly(self.labeling)
            if self.verdict != expected:
                raise ValueError("verdict inconsistent with gamma and labeling")


def is_cordial(digraph: Digraph) -> LabelingReport | None:
    """Search friendly labelings for a balanced arc labeling.

    Returns the report of the first witness in ascending labeling-mask
    order (vertex 0 pinned to label 0), or None when the digraph is not
    (2,3)-cordial, without a scan when it has more arcs than max_edges(n).
    Inputs the frontier DP answers more cheaply go to it (see
    ``_first_mask``); both routes return the same witness.
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

    Certificates come first: more pairs than ``max_edges(n)`` leave no
    friendly labeling a balanced triple, so no search starts.  The
    frontier DP costs about n * (n/2) * 2^w for frontier width w (bitsets
    of n/2 ones rows, 2^w patterns per vertex) and the kernel reads up to
    ``_pinned_labelings(n)`` labelings, the budget once divided by
    ``_LABELINGS_PER_DP_UNIT``.  An input whose DP would reach the budget
    even at w = 0 stays on the kernel without a plan.  Every other one
    reads the widths of ``_frontier_plan`` until one reaches the
    budget or the layers would pass ``_DP_MAX_BITS`` (kernel); otherwise
    the DP walks the plan just read.  The widths come from the steps'
    keys, so a kernel-routed input builds no step.  Both searches return
    the same mask.
    """
    if n < 2:
        return _scan_first_mask(n, pairs, directed)
    if len(pairs) > max_edges(n):
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


def _pinned_labelings(n: int) -> int:
    """The friendly labelings of n vertices with vertex 0 labeled 0, over
    both friendly sizes: as many as ``_labelings(n, pairs)`` yields.  The
    empty graph has one, the empty labeling."""
    if n == 0:
        return 1
    return sum(comb(n - 1, k) for k in {n // 2, (n + 1) // 2})


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
    that passes the window test, read from the kernel.

    Every decider needs lambda = m - |B| in the window, so it is tested
    first, as |B| among the keys of ``_balanced(m)``.  Directed: alpha =
    |P| must lie in the entry of |B| too.  Undirected: lambda alone, since
    ``construct_witness_orientation`` splits the bichromatic pairs evenly.
    """
    balanced = _balanced(len(pairs))
    for mh, bh, hh, lows in _labelings(n, pairs):
        for ml, bl, hl in lows:
            if (bh ^ bl).bit_count() in balanced:
                if not directed:
                    return mh | ml
                bi = bh ^ bl
                if (bi & (hh ^ hl)).bit_count() in balanced[bi.bit_count()]:
                    return mh | ml
    return None


@dataclass(frozen=True)
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
    cheaply go to it (see ``_first_mask``), with the same witness.
    """
    mask = _first_mask(graph.vertex_count, graph.edges, False)
    if mask is None:
        return None
    labeling = VertexLabeling(graph.vertex_count, mask)
    o = construct_witness_orientation(graph, labeling)
    return OrientabilityWitness(labeling, o, gamma_triple(orient(graph, o), labeling))


# Kernel labelings per unit of the DP's estimate below which the kernel
# keeps an input.  Measured (Python 3.11, 2 vCPUs): the DP takes 0.1-0.3
# us per unit and a full kernel scan 0.4 us per labeling, but the kernel
# stops at its first witness, which on sparse random digraphs with
# n = 14..18 comes within the first 1-7% of its labelings.
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


# One vertex's step: (w', moves).  Each move (q, sources) lists the
# (p, x, shift) that send frontier pattern p before the vertex, labeled
# x, to pattern q after it, shifting the bitset by shift.
Step = tuple[int, list[tuple[int, list[tuple[int, int, int]]]]]
# What a step is built from: ``_frontier_step``'s first four arguments.
StepKey = tuple[tuple[bool, ...], bool, tuple[tuple[int, bool], ...], bool]


def _frontier_plan(
    n: int, pairs: tuple[tuple[int, int], ...], directed: bool
) -> tuple[_Layout, Iterator[tuple[int, StepKey]]]:
    """The frontier DP's one pass over the pairs: the layout of n vertices
    and the pairs, and a lazy iterator over (w', key) for each vertex i in
    natural order, w' its frontier width after i and key what its step is
    built from (``_frontier_steps``), so a caller can stop at the first
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


def _frontier_steps(
    plan: Iterable[tuple[int, StepKey]], layout: _Layout
) -> list[Step]:
    """The step of each (w', key) of ``plan``.  Vertices whose frontier
    looks the same share one step (the inner vertices of a path use two)."""
    known: dict[StepKey, Step] = {}
    steps = []
    for _, key in plan:
        step = known.get(key)
        if step is None:
            step = known[key] = _frontier_step(*key, layout.shifts, layout.one)
        steps.append(step)
    return steps


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
    (frontier position, is tail) of the vertex's lower neighbours."""
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
    return len(kept) + joins, list(moves.items())


def _frontier_layers(plan: Iterable[Step], valid: int) -> Iterator[list[int]]:
    """Reachable states after each vertex of ``plan``, one layer per vertex.

    Entry p of the layer after vertex i is one int over (ones, counts):
    its bits mark what the labelings of vertices 0..i with frontier
    labels p reach.  ``valid`` masks the ones and counts kept (the caps),
    so a vertex is a shift, an OR and a mask per pattern.  Counts never
    fall and ones never exceed its cap in a friendly labeling, so pruning
    loses no completion.  Each layer is a new list.
    """
    layer = [1]
    for w2, moves in plan:
        nxt = [0] * (1 << w2)
        for q, sources in moves:
            reached = 0
            for p, _, shift in sources:
                reached |= layer[p] << shift
            nxt[q] = reached & valid
        layer = nxt
        yield layer


def _frontier_first_mask(
    n: int, pairs: tuple[tuple[int, int], ...], directed: bool
) -> int | None:
    """``_scan_first_mask``'s mask, computed by the frontier DP whatever
    the size."""
    layout, plan = _frontier_plan(n, pairs, directed)
    return _frontier_walk(list(plan), layout, layout.goal(n, len(pairs)))


def _frontier_walk(
    plan: list[tuple[int, StepKey]], layout: _Layout, goal: int
) -> int | None:
    """The first friendly mask in ascending order, vertex 0 pinned to 0,
    whose states after the last vertex of ``plan`` meet ``goal``.

    The first mask is found by walking from the last vertex down with one
    target bitset per frontier pattern (the reachable ones and counts
    that still complete to a friendly labeling with a balanced triple,
    given the labels already fixed), choosing label 0 whenever a
    reachable state meets its target.  Every target bit is a valid state
    and a vertex's shift never carries out of one, so before & (target
    >> shift) is exactly the reachable states that the vertex's label
    takes into the target: no re-mask is needed.
    """
    steps = _frontier_steps(plan, layout)
    layers = [[1], *_frontier_layers(steps, layout.valid())]
    target = [goal]
    if not layers[-1][0] & target[0]:
        return None
    mask = 0
    for i in range(len(steps) - 1, -1, -1):
        moves = steps[i][1]
        before = layers[i]
        for label in (0, 1):
            pulled = [0] * len(before)
            for q, sources in moves:
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
