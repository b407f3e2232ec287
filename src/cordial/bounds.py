"""Edge-count bounds for (2,3)-orientability.

Under any friendly labeling of n vertices, the two label classes have
sizes ceil(n/2) and floor(n/2), so a graph has at most
ceil(n/2)*floor(n/2) bichromatic edges.  On the complete graph the
remaining Z = C(ceil(n/2),2) + C(floor(n/2),2) edges are forced
monochromatic whatever the labeling, which certifies K_n non-orientable
for n >= 6.  A balanced triple also caps the monochromatic count at one
more than the smaller bichromatic count, which gives the exact edge
ceiling max_edges.  That formula and bichromatic_capacity live in
graphs, beside tight_bound_graph, so the engine can answer graphs above
the ceiling without importing this module.  verify_bound checks the
ceiling exhaustively at desk scale and produces a constructive tightness
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .engine import _MAX_LABELINGS, OrientabilityWitness, _pinned_labelings, _refuse_over
from .engine import _scan_first_mask, is_orientable
from .graphs import (
    Graph,
    bichromatic_capacity,
    complete_graph,
    max_edges,
    tight_bound_graph,
)


def z_value(n: int) -> int:
    """Monochromatic edge count forced on K_n by every friendly labeling."""
    if n < 2:
        raise ValueError("need n >= 2")
    return comb((n + 1) // 2, 2) + comb(n // 2, 2)


def complete_graph_zero_excess(n: int) -> bool:
    """True when Z exceeds one third of C(n,2).

    This is the raw comparison certifying K_n non-orientable for n >= 6.
    For odd n below 6 the comparison can hold even though small complete
    graphs stay orientable, because the balanced window is two values
    wide; callers wanting the sharp test should use the window check.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return 3 * z_value(n) > comb(n, 2)


@dataclass(frozen=True)
class BoundsRecord:
    """Evaluated bound quantities for one vertex count."""

    n: int
    z: int
    bichromatic_capacity: int
    e_max: int
    in_stated_range: bool


def bounds_record(n: int) -> BoundsRecord:
    return BoundsRecord(
        n=n,
        z=z_value(n),
        bichromatic_capacity=bichromatic_capacity(n),
        e_max=max_edges(n),
        in_stated_range=n >= 6,
    )


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of the exhaustive bound verification at one vertex count."""

    n: int
    graphs_checked: int
    violations: tuple[Graph, ...]
    tight_witness: OrientabilityWitness | None


def verify_bound(n: int) -> BoundCheckReport:
    """Exhaustively test the e_max ceiling on n vertices.

    Every labeled graph with more than max_edges(n) edges is run through
    the labeling scan of the orientability check, never through its
    edge-count certificate, which would assume the ceiling under test;
    any that comes back orientable is collected as a violation.  The
    tight-bound construction at exactly max_edges(n) edges gets its
    witness from ``is_orientable``: the certificate answers only graphs
    above the ceiling, so it cannot answer this one.

    The graphs above the ceiling, K_n less j < k = C(n,2) - max_edges(n)
    edges, are sized first and refused over the census's cap on the pinned
    labelings they scan (n >= 10).  From k = 64 on the count is only bounded,
    by 2^(k-1) = sum_{j<k} C(k-1, j), times two labelings or more (n >= 3).
    """
    pairs, e_max = comb(n, 2), max_edges(n)
    k = pairs - e_max
    graphs = sum(comb(pairs, j) for j in range(k)) if k < 64 else 0
    scans = graphs * _pinned_labelings(n) if graphs else 0
    _refuse_over(_MAX_LABELINGS, scans, "labelings to scan", "{} vertices", n, k)
    all_edges = complete_graph(n).edges
    checked, violations = 0, []
    for m in range(e_max + 1, pairs + 1):
        for combo in combinations(all_edges, m):
            checked += 1
            if _scan_first_mask(n, combo, False) is not None:
                violations.append(Graph(n, combo))
    if checked != graphs:
        raise AssertionError(f"sized {graphs} graphs above the ceiling, scanned {checked}")
    return BoundCheckReport(
        n=n,
        graphs_checked=checked,
        violations=tuple(violations),
        tight_witness=is_orientable(tight_bound_graph(n)),
    )
