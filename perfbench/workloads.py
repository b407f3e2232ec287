"""The benchmark's four workloads: their inputs, calls and gates.

``build(cordial, name, seed, size)`` makes a workload's operations from
its seed.  Each operation calls one public function of the library
through its module attribute (so a traced run sees the call) and carries
a gate that checks the answer against ``oracle``; the gate is applied
after the timed region.  ``size`` is ``"full"`` for measurement and
``"tiny"`` for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import product
from math import comb
from typing import Any, Callable

import oracle
from oracle import expect

WORKLOADS = ("decide", "census", "paths", "paper")
SIZES = ("full", "tiny")

PAPER_CHECKS = (
    "alternating-p10-no-cordial-labeling",
    "p10-orientation-census",
    "path-family-landscape",
    "deg3-tree-not-orientable",
    "petersen-not-orientable",
    "orientability-window-crosscheck",
    "edge-count-bound",
    "tournament-census",
    "gamma-symmetry-identities",
    "quasigroup-instance-equivalence",
    "path-dp-crosscheck",
)
TINY_PAPER_CHECKS = (
    "deg3-tree-not-orientable",
    "petersen-not-orientable",
    "gamma-symmetry-identities",
)


@dataclass
class Op:
    """One timed call into the library and the gate for its answer."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    arg: Any = None  # the input the call is made on
    # Results of this operation that must be identical (e.g. jobs=1 and
    # jobs=2 on one input) share a group name.
    group: str | None = None
    key: Callable[[Any], Any] | None = field(default=None, repr=False)


def _lazy(fn):
    """Compute an oracle answer once, on first use."""
    memo = []

    def get():
        if not memo:
            memo.append(fn())
        return memo[0]

    return get


# ---------------------------------------------------------------------------
# Operation makers
# ---------------------------------------------------------------------------

def _orientable_op(C, name, graph, complete=False) -> Op:
    n, edges = graph.vertex_count, graph.edges

    def check(witness):
        if witness is None:
            if complete:
                # K_n: every friendly labeling has lambda = Z.
                expect(len(edges) == comb(n, 2), f"{name}: not a complete graph")
                lo, hi = oracle.window(len(edges))
                z = oracle.complete_graph_lambda(n)
                expect(not lo <= z <= hi, f"{name}: 'no' but Z={z} is in the window")
            else:
                lo, hi = oracle.window(len(edges))
                reach = oracle.lambda_values(n, edges)
                expect(
                    not any(lo <= lam <= hi for lam in reach),
                    f"{name}: 'no' but friendly labelings reach the window {lo}..{hi}",
                )
            return
        expect(witness.orientation.graph.edges == edges, f"{name}: witness orients another graph")
        oracle.check_orientation_witness(
            name, n, edges, witness.labeling.mask, witness.orientation.bits, witness.gamma
        )

    return Op(name, lambda: C.engine.is_orientable(graph), check, graph)


def _cordial_op(C, name, digraph) -> Op:
    n, arcs = digraph.vertex_count, digraph.arcs

    def check(report):
        if report is None:
            expect(not oracle.digraph_is_cordial(n, arcs), f"{name}: 'no' but a cordial labeling exists")
            return
        expect(report.verdict is True, f"{name}: report verdict is {report.verdict}")
        oracle.check_labeling_witness(name, n, arcs, report.labeling.mask, report.gamma)

    return Op(name, lambda: C.engine.is_cordial(digraph), check, digraph)


def _subset_q_op(C, name, digraph, instance) -> Op:
    """Quasigroup engine on the Z3-subtraction instance: the same question
    as (2,3)-cordiality, so the digraph brute force is its oracle."""
    n, arcs = digraph.vertex_count, digraph.arcs
    expect(instance.label_subset == (0, 1), f"{name}: instance is not the Z3 one")

    def check(f):
        if f is None:
            expect(not oracle.digraph_is_cordial(n, arcs), f"{name}: 'no' but a cordial labeling exists")
            return
        expect(len(f) == n and set(f) <= {0, 1}, f"{name}: labels {f} outside {{0, 1}}")
        counts = [0, 0, 0]
        for t, h in arcs:
            counts[(f[h] - f[t]) % 3] += 1
        expect(sum(f) in oracle.friendly_sizes(n), f"{name}: vertex labels not balanced")
        expect(oracle.balanced(*counts), f"{name}: arc label counts {counts} not balanced")

    return Op(name, lambda: C.quasigroup.is_subset_q_cordial(digraph, instance), check, digraph)


def _a_cordial_op(C, name, graph, table) -> Op:
    """Cordiality over the Z3 addition table."""
    n, edges = graph.vertex_count, graph.edges

    def fibers_ok(f) -> bool:
        vc = [0, 0, 0]
        ec = [0, 0, 0]
        for x in f:
            vc[x] += 1
        for u, v in edges:
            ec[(f[u] + f[v]) % 3] += 1
        return oracle.balanced(*vc) and oracle.balanced(*ec)

    def check(f):
        if f is None:
            expect(
                not any(fibers_ok(g) for g in product(range(3), repeat=n)),
                f"{name}: 'no' but a balanced labeling exists",
            )
            return
        expect(len(f) == n and set(f) <= {0, 1, 2}, f"{name}: labels {f} outside Z3")
        expect(fibers_ok(f), f"{name}: witness fibers not balanced")

    return Op(name, lambda: C.quasigroup.is_a_cordial(graph, table), check, graph)


def _search_op(C, name, graph, mode, jobs, failures, group=None) -> Op:
    """noncordial_orientations against the window-first census."""
    m = len(graph.edges)
    fix_arc = mode.value in ("fix_first_arc", "both")

    def check(report):
        want = [b for b in failures() if not (fix_arc and b & 1)]
        total = (1 << (m - 1)) if fix_arc and m else 1 << m
        expect(report.symmetry_mode is mode, f"{name}: mode {report.symmetry_mode}")
        expect(
            report.total_orientations_scanned == total,
            f"{name}: scanned {report.total_orientations_scanned}, expected {total}",
        )
        got = [o.bits for o in report.noncordial]
        expect(got == want, f"{name}: {len(got)} failures listed, window-first census has {len(want)}")
        expect(all(o.graph.edges == graph.edges for o in report.noncordial), f"{name}: foreign orientation")

    return Op(
        name,
        lambda: C.search.noncordial_orientations(graph, mode, jobs=jobs),
        check,
        graph,
        group=group,
        key=lambda report: [o.bits for o in report.noncordial],
    )


def _tournament_op(C, name, n) -> Op:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    failures = _lazy(lambda: oracle.noncordial_orientation_bits(n, edges))

    def check(survey):
        expect(survey.n == n and survey.total == 1 << len(edges), f"{name}: census size {survey.total}")
        want = len(failures())
        expect(
            survey.noncordial_count == want,
            f"{name}: {survey.noncordial_count} non-cordial, window-first census has {want}",
        )

    return Op(name, lambda: C.search.tournament_survey(n), check, n)


def _scan_op(C, name, n_max) -> Op:
    def check(failing):
        dp = oracle.path_prefix_verdicts(oracle.alternating_forward(n_max))
        want = [n for n in range(2, n_max + 1, 2) if not dp[n - 2]]
        expect(failing == want, f"{name}: {failing}, own DP gives {want}")
        for n in range(2, min(n_max, 22) + 1, 2):
            brute = oracle.digraph_is_cordial(n, oracle.alternating_arcs(n))
            expect(brute == dp[n - 2], f"{name}: own DP and brute force disagree at n={n}")

    return Op(name, lambda: C.search.scan_alternating_paths(n_max), check, n_max)


def _path_dp_op(C, name, digraph) -> Op:
    n, arcs = digraph.vertex_count, digraph.arcs

    def check(labeling):
        if labeling is None:
            verdict = oracle.path_prefix_verdicts(oracle.path_arcs_forward(n, arcs))[-1]
            expect(not verdict, f"{name}: 'no' but own DP finds a cordial labeling")
            return
        expect(labeling.vertex_count == n, f"{name}: labeling on {labeling.vertex_count} vertices")
        oracle.check_labeling_witness(name, n, arcs, labeling.mask)

    return Op(name, lambda: C.search.path_cordial_dp(digraph), check, digraph)


def _paper_op(C, name, checks) -> Op:
    argv = ["verify-paper", "--json"]
    if checks != PAPER_CHECKS:
        for c in checks:
            argv += ["--only", c]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = C.cli.run(list(argv))
        return code, buf.getvalue()

    def check(result):
        code, text = result
        expect(code == 0, f"{name}: exit code {code}")
        report = json.loads(text)
        verdicts = report["verdicts"]
        expect(verdicts["all_passed"] is True, f"{name}: all_passed is {verdicts['all_passed']}")
        rows = verdicts["checks"]
        expect(tuple(r["name"] for r in rows) == checks, f"{name}: checks {[r['name'] for r in rows]}")
        budgets = {c.name: c.budget_seconds for c in C.verify.ALL_CHECKS}
        for r in rows:
            expect(r["passed"] is True, f"{name}: {r['name']} failed: {r['details']}")
            expect(
                r["elapsed_seconds"] <= budgets[r["name"]],
                f"{name}: {r['name']} took {r['elapsed_seconds']}s, budget {budgets[r['name']]}s",
            )

    return Op(name, call, check, argv)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _permuted(C, graph, rng):
    """The same graph with its vertices renumbered at random."""
    p = list(range(graph.vertex_count))
    rng.shuffle(p)
    return C.graphs.make_graph(graph.vertex_count, [(p[u], p[v]) for u, v in graph.edges])


def _sparse_digraph(C, n, rng, degree=3.0):
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < degree / n:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return C.graphs.Digraph(n, tuple(arcs))


def _dense_digraph(C, n, rng):
    """A random orientation of K_n minus n//2 random edges.

    From n = 9 on this is above the edge ceiling, so never cordial.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = sorted(rng.sample(pairs, len(pairs) - n // 2))
    g = C.graphs.Graph(n, tuple(keep))
    return C.graphs.orient(g, C.graphs.Orientation(g, rng.getrandbits(len(keep))))


def _random_graph(C, n, rng, p):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return C.graphs.Graph(n, tuple(pairs))


def _random_path(C, n, rng):
    g = C.graphs.path_graph(n)
    return C.graphs.orient(g, C.graphs.Orientation(g, rng.getrandbits(n - 1)))


def _fixed_shape_path(C, n, rng):
    """One fixed random orientation, its arcs reversed or not by the seed.

    Reversal swaps +1 and -1 arcs, so the DP keeps state sets of exactly
    the same sizes: the longest path, which sets the run's peak memory,
    costs the same for every seed.
    """
    d = _random_path(C, n, random.Random(f"paths:longest:{n}"))
    return C.graphs.reverse(d) if rng.random() < 0.5 else d


def _noncordial_path(C, n, rng):
    """An alternating path (never cordial for n = 10 mod 12), or its reversal."""
    d = C.graphs.alternating_path(n)
    return C.graphs.reverse(d) if rng.random() < 0.5 else d


def _z3_add(C):
    return C.quasigroup.CayleyTable(tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)))


def _decide(C, rng, size):
    g = C.graphs
    full = size == "full"
    ops = [_orientable_op(C, f"orient-K{n}", g.complete_graph(n), complete=True)
           for n in ((16, 17, 18) if full else (7, 8))]
    ops.append(_orientable_op(C, "orient-tight18" if full else "orient-tight7",
                              g.tight_bound_graph(18 if full else 7)))
    for n in ((14, 15) if full else (6,)):
        ops.append(_orientable_op(C, f"orient-tight{n}-permuted", _permuted(C, g.tight_bound_graph(n), rng)))
    ops.append(_cordial_op(C, "cordial-alt22" if full else "cordial-alt10",
                           g.alternating_path(22 if full else 10)))
    for n in ((18, 20) if full else (8,)):
        ops.append(_cordial_op(C, f"cordial-alt{n}", g.alternating_path(n)))
    for n in ((14, 16, 18) if full else (6, 8)):
        ops.append(_cordial_op(C, f"cordial-random{n}", _sparse_digraph(C, n, rng)))
    ops.append(_orientable_op(C, "orient-petersen", g.petersen_graph()))
    ops.append(_orientable_op(C, "orient-counterexample-tree", g.counterexample_tree()))
    nq = 16 if full else 9
    ops.append(_subset_q_op(C, f"qcordial-dense{nq}", _dense_digraph(C, nq, rng),
                            C.quasigroup.z3_minus_instance()))
    na = 10 if full else 6
    ops.append(_a_cordial_op(C, f"acordial-random{na}", _random_graph(C, na, rng, 0.4), _z3_add(C)))
    return ops


def _census(C, rng, size):
    g = C.graphs
    S = C.search.SymmetryMode
    full = size == "full"
    ops = []
    path_sizes = (12, 13, 14) if full else (4, 6)
    for n in path_sizes:
        graph = g.path_graph(n)
        failures = _lazy(lambda n=n, graph=graph: oracle.noncordial_orientation_bits(n, graph.edges))
        last = n == path_sizes[-1]
        for mode in S:
            # The largest path's BOTH search also runs at jobs=2; the pair
            # must agree.
            pair = f"P{n}-both" if last and mode is S.BOTH else None
            ops.append(_search_op(C, f"search-P{n}-{mode.value}", graph, mode, 1, failures, pair))
        if last:
            ops.append(_search_op(C, f"search-P{n}-both-jobs2", graph, S.BOTH, 2, failures, f"P{n}-both"))
    if full:
        pg = g.petersen_graph()
        ops.append(_search_op(C, "search-petersen-both", pg, S.BOTH, 1,
                              _lazy(lambda: oracle.noncordial_orientation_bits(10, pg.edges))))
    for n in ((5, 6) if full else (3, 4)):
        ops.append(_tournament_op(C, f"tournaments-{n}", n))
    return ops


def _paths(C, rng, size):
    full = size == "full"
    ops = [_scan_op(C, "scan-alternating-60" if full else "scan-alternating-22", 60 if full else 22)]
    # Fixed lengths keep the work per round about the same for every seed;
    # the seed picks the orientations.
    sizes = (30, 36, 42, 48, 54, 60) if full else (8, 11, 14)
    for n in sizes[:-1]:
        ops.append(_path_dp_op(C, f"dp-random-n{n}", _random_path(C, n, rng)))
    ops.append(_path_dp_op(C, f"dp-random-n{sizes[-1]}", _fixed_shape_path(C, sizes[-1], rng)))
    for n in ((34, 46, 58) if full else (10,)):
        ops.append(_path_dp_op(C, f"dp-alternating-n{n}", _noncordial_path(C, n, rng)))
    return ops


def _paper(C, rng, size):
    return [_paper_op(C, "verify-paper", PAPER_CHECKS if size == "full" else TINY_PAPER_CHECKS)]


_BUILDERS = {"decide": _decide, "census": _census, "paths": _paths, "paper": _paper}


def build(C, name: str, seed: int, size: str = "full") -> list[Op]:
    """The operations of workload ``name`` with inputs made from ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[name](C, random.Random(f"{name}:{seed}"), size)
