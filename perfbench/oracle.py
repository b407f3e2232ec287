"""Independent answers for the benchmark's correctness gates.

Nothing here imports ``cordial``: every function works on plain vertex
counts, edge pairs and arc pairs, with its own arithmetic, so a fault in
the library cannot hide behind the same fault in its checker.

Conventions match the library's public data: an arc (t, h) under a 0/1
labeling gets f(h) - f(t); an undirected edge (u, v) with u < v is
oriented u -> v when its orientation bit is clear and v -> u when set; a
labeling is the bitmask of its 1-labeled vertices.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


class GateFailure(AssertionError):
    """An output of the program disagrees with the independent answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def friendly_sizes(n: int) -> tuple[int, ...]:
    """Numbers of 1-labels a friendly labeling of n vertices may use."""
    return tuple(sorted({n // 2, (n + 1) // 2}))


def window(m: int) -> tuple[int, int]:
    """Monochromatic counts a balanced triple on m arcs can have."""
    return m // 3, (m + 2) // 3


def balanced(a: int, b: int, c: int) -> bool:
    return max(a, b, c) - min(a, b, c) <= 1


def arc_counts(arcs, mask: int) -> tuple[int, int, int]:
    """(+1, -1, 0) arc-label counts under the labeling ``mask``."""
    plus = minus = 0
    for t, h in arcs:
        ft = (mask >> t) & 1
        fh = (mask >> h) & 1
        if fh > ft:
            plus += 1
        elif fh < ft:
            minus += 1
    return plus, minus, len(arcs) - plus - minus


def oriented(edges, bits: int):
    """Arcs of the orientation ``bits`` of an edge list."""
    return [(v, u) if (bits >> j) & 1 else (u, v) for j, (u, v) in enumerate(edges)]


def _vertex_arc_masks(n: int, arcs):
    """Per vertex, bitmasks over arc indices where it is tail and head."""
    tails = [0] * n
    heads = [0] * n
    for j, (t, h) in enumerate(arcs):
        tails[t] |= 1 << j
        heads[h] |= 1 << j
    return tails, heads


def _half_tables(vertices, tails, heads):
    """For every subset of ``vertices``, grouped by size: (tail, head) arc masks."""
    table: dict[int, list[tuple[int, int]]] = {}
    for r in range(len(vertices) + 1):
        rows = table.setdefault(r, [])
        for chosen in combinations(vertices, r):
            t = h = 0
            for v in chosen:
                t |= tails[v]
                h |= heads[v]
            rows.append((t, h))
    return table


def labeling_triples(n: int, arcs):
    """Yield the (+1, -1, 0) triple of every friendly labeling.

    The 1-class is chosen as a pair of combinations, one from each half
    of the vertex set; an arc is +1 when only its head is in the class
    and -1 when only its tail is.
    """
    m = len(arcs)
    tails, heads = _vertex_arc_masks(n, arcs)
    low = list(range(n // 2))
    high = list(range(n // 2, n))
    low_t = _half_tables(low, tails, heads)
    high_t = _half_tables(high, tails, heads)
    for k in friendly_sizes(n):
        for j in range(max(0, k - len(high)), min(k, len(low)) + 1):
            for t1, h1 in low_t[j]:
                for t2, h2 in high_t[k - j]:
                    t = t1 | t2
                    h = h1 | h2
                    plus = (h & ~t).bit_count()
                    minus = (t & ~h).bit_count()
                    yield plus, minus, m - plus - minus


def digraph_is_cordial(n: int, arcs) -> bool:
    """Brute force: does any friendly labeling balance the arc labels?"""
    return any(balanced(*tri) for tri in labeling_triples(n, arcs))


def lambda_values(n: int, edges) -> set[int]:
    """Monochromatic edge counts reached by the friendly labelings of a graph."""
    return {zero for _, _, zero in labeling_triples(n, edges)}


def graph_is_orientable(n: int, edges) -> bool:
    """Orientable iff some friendly labeling puts lambda in the window."""
    lo, hi = window(len(edges))
    return any(lo <= lam <= hi for lam in lambda_values(n, edges))


def complete_graph_lambda(n: int) -> int:
    """Monochromatic count of K_n under any friendly labeling."""
    return comb((n + 1) // 2, 2) + comb(n // 2, 2)


def friendly_rank(n: int, mask: int | None) -> int:
    """Friendly labelings with vertex 0 labeled 0 up to and including
    ``mask`` in ascending order, or all of them when ``mask`` is None.

    This is how many labelings a first-witness scan in that order reads.
    """
    sizes = friendly_sizes(n)
    if mask is None:
        return sum(comb(n - 1, k) for k in sizes)
    count = 1
    ones_above = 0
    for p in range(n - 1, 0, -1):
        if (mask >> p) & 1:
            # Same bits above p, 0 at p, any bits at 1..p-1, bit 0 clear.
            count += sum(comb(p - 1, k - ones_above) for k in sizes if k >= ones_above)
            ones_above += 1
    return count


def balanced_assignment_rank(n: int, symbols, f) -> int:
    """Balanced assignments V -> symbols in lexicographic order (by the
    order of ``symbols``) up to and including ``f``, or all when f is None.
    """
    s = len(symbols)
    lo, extra = divmod(n, s)
    # Final fiber sizes: ``extra`` symbols get lo + 1, the rest lo.
    targets = [
        tuple(lo + 1 if i in chosen else lo for i in range(s))
        for chosen in combinations(range(s), extra)
    ]

    def completions(counts) -> int:
        left = n - sum(counts)
        total = 0
        for target in targets:
            need = [t - c for t, c in zip(target, counts)]
            if min(need) < 0:
                continue
            ways = 1
            rest = left
            for x in need:
                ways *= comb(rest, x)
                rest -= x
            total += ways
        return total

    if f is None:
        return completions([0] * s)
    index = {x: i for i, x in enumerate(symbols)}
    counts = [0] * s
    rank = 1
    for x in f:
        for i in range(index[x]):
            counts[i] += 1
            rank += completions(counts)
            counts[i] -= 1
        counts[index[x]] += 1
    return rank


# ---------------------------------------------------------------------------
# Witness checks
# ---------------------------------------------------------------------------

def check_labeling_witness(what: str, n: int, arcs, mask: int, gamma=None) -> None:
    """A claimed cordial labeling must be friendly and balance the arcs."""
    expect(0 <= mask < (1 << n), f"{what}: labeling mask {mask} does not fit {n} vertices")
    expect(mask.bit_count() in friendly_sizes(n), f"{what}: witness labeling is not friendly")
    tri = arc_counts(arcs, mask)
    expect(balanced(*tri), f"{what}: witness triple {tri} is not balanced")
    if gamma is not None:
        expect(tuple(gamma) == tri, f"{what}: reported gamma {tuple(gamma)} != recomputed {tri}")


def check_orientation_witness(what: str, n: int, edges, mask: int, bits: int, gamma) -> None:
    """A claimed orientability witness must orient this graph and balance it."""
    expect(0 <= bits < (1 << len(edges)), f"{what}: orientation does not fit {len(edges)} edges")
    check_labeling_witness(what, n, oriented(edges, bits), mask, gamma)


# ---------------------------------------------------------------------------
# Window-first orientation census
# ---------------------------------------------------------------------------

def noncordial_orientation_bits(n: int, edges) -> list[int]:
    """All orientations (ascending bits) with no cordial labeling.

    gamma_0 = lambda does not depend on the orientation, so only
    labelings S with lambda(S) in the window can make any orientation
    cordial.  For such S, with B marking the bichromatic edges and P
    those whose u -> v direction is +1, an orientation o gets
    alpha = popcount((o ^ P) & B), and it is cordial through S iff
    (alpha, |B| - alpha, lambda) is balanced.
    """
    m = len(edges)
    lo, hi = window(m)
    cover: dict[tuple[int, int], frozenset[int]] = {}
    for k in friendly_sizes(n):
        for ones in combinations(range(n), k):
            mask = 0
            for v in ones:
                mask |= 1 << v
            bi = plus_fwd = 0
            for j, (u, v) in enumerate(edges):
                fu = (mask >> u) & 1
                fv = (mask >> v) & 1
                if fu != fv:
                    bi |= 1 << j
                    if fv:
                        plus_fwd |= 1 << j
            nbi = bi.bit_count()
            lam = m - nbi
            if not lo <= lam <= hi:
                continue
            alphas = frozenset(a for a in range(nbi + 1) if balanced(a, nbi - a, lam))
            if alphas:
                cover[(plus_fwd, bi)] = cover.get((plus_fwd, bi), frozenset()) | alphas
    triples = [(p, b, a) for (p, b), a in cover.items()]
    return [
        bits
        for bits in range(1 << m)
        if not any(((bits ^ p) & b).bit_count() in a for p, b, a in triples)
    ]


# ---------------------------------------------------------------------------
# Oriented-path DP
# ---------------------------------------------------------------------------

def path_prefix_verdicts(forward) -> list[bool]:
    """Cordiality of every prefix of an oriented path.

    ``forward[j]`` says the arc between path vertices j and j+1 points
    from j to j+1.  Entry i of the result is the verdict for the path on
    vertices 0..i+1.  State: (label of the last vertex, ones, alpha) ->
    bitset over beta, pruned at ceil(m/3) for the longest prefix.
    """
    n_max = len(forward) + 1
    cap = (n_max + 1) // 3  # ceil((n_max - 1) / 3)
    ones_cap = (n_max + 1) // 2
    keep = (1 << (cap + 1)) - 1
    states = {(0, 0, 0): 1, (1, 1, 0): 1}
    out = []
    for j, fwd in enumerate(forward):
        nxt: dict[tuple[int, int, int], int] = {}
        for (prev, ones, alpha), betas in states.items():
            for x in (0, 1):
                d = (x - prev) if fwd else (prev - x)
                key_ones = ones + x
                key_alpha = alpha + (d == 1)
                if key_ones > ones_cap or key_alpha > cap:
                    continue
                new = (betas << 1) & keep if d == -1 else betas
                if new:
                    key = (x, key_ones, key_alpha)
                    nxt[key] = nxt.get(key, 0) | new
        states = nxt
        n = j + 2
        m = n - 1
        sizes = friendly_sizes(n)
        out.append(
            any(
                (betas >> beta) & 1 and balanced(alpha, beta, m - alpha - beta)
                for (_, ones, alpha), betas in states.items()
                if ones in sizes
                for beta in range(cap + 1)
            )
        )
    return out


def path_arcs_forward(n: int, arcs) -> list[bool]:
    """Direction flags of an oriented path given in path order."""
    expect(len(arcs) == n - 1, f"not an oriented path: {len(arcs)} arcs on {n} vertices")
    flags = []
    for j, (t, h) in enumerate(arcs):
        expect({t, h} == {j, j + 1}, f"arc {j} is ({t}, {h}), not on the path")
        flags.append(t == j)
    return flags


def alternating_forward(n: int) -> list[bool]:
    """Arc j (1-indexed) of the alternating path points forward iff j is odd."""
    return [j % 2 == 1 for j in range(1, n)]


def alternating_arcs(n: int):
    return [(j - 1, j) if j % 2 else (j, j - 1) for j in range(1, n)]
