"""Built-in verification suite for the library's headline results.

Each check is a self-contained computation with a fixed expected outcome
and a wall-clock budget.  The CLI ``verify-paper`` subcommand (through
``all_checks()``) and the acceptance test module both consume the same
list.

The checks share nothing, so ``all_checks()`` runs them side by side: it
forks one worker per usable CPU beyond the first (at most one per check
beyond the first), and this process and the workers take the checks one
at a time, largest budget first.  Each check's elapsed time is measured
in the process that ran it, so its budget holds as in a serial run.  The
results come back in declared order.  With one usable CPU, one selected
check, no ``os.fork``, or other threads running, the checks run here one
after another in declared order.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .bounds import complete_graph_zero_excess, max_edges, verify_bound, z_value
from .engine import (
    OrientabilityWitness,
    _balanced,
    _scan_first_mask,
    _sliced_leaves,
    gamma_triple,
    is_balanced_triple,
    is_cordial,
    is_friendly,
    is_orientable,
    lambda_count,
)
from .graphs import (
    Digraph,
    Graph,
    Orientation,
    VertexLabeling,
    alternating_path,
    complete_graph,
    counterexample_tree,
    orient,
    path_graph,
    petersen_graph,
    reverse,
)
from .quasigroup import (
    CayleyTable,
    is_subset_q_cordial,
    validate_latin,
    z3_minus_instance,
)
from .search import (
    SymmetryMode,
    friendly_labelings,
    noncordial_orientations,
    orientations,
    path_cordial_dp,
    scan_alternating_paths,
    tournament_survey,
)


class CheckFailure(AssertionError):
    """Raised by a check body when an expected outcome does not hold."""


def _expect(condition: bool, message: str | Callable[[], str]) -> None:
    """Raise CheckFailure unless condition holds.  A message with values
    in it comes as a function, so it is formatted only on failure."""
    if not condition:
        raise CheckFailure(message if isinstance(message, str) else message())


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    elapsed: float
    budget: float


@dataclass(frozen=True)
class Check:
    name: str
    budget_seconds: float
    fn: Callable[[], str]

    def run(self) -> CheckResult:
        t0 = time.perf_counter()
        try:
            details = self.fn()
            passed = True
        except CheckFailure as exc:
            details = str(exc)
            passed = False
        except Exception as exc:  # report, never crash the table
            details = f"unexpected error: {exc!r}"
            passed = False
        elapsed = time.perf_counter() - t0
        if passed and elapsed > self.budget_seconds:
            passed = False
            details += f" (took {elapsed:.1f}s, budget {self.budget_seconds:g}s)"
        return CheckResult(self.name, passed, details, elapsed, self.budget_seconds)


# ---------------------------------------------------------------------------
# Helpers shared by several checks
# ---------------------------------------------------------------------------

def _connected(graph: Graph) -> bool:
    n = graph.vertex_count
    if n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _random_graph(rng: random.Random, n: int) -> Graph:
    # A list, not a generator, for tuple(): see graphs.orient.
    edges = tuple([
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.randrange(2)
    ])
    return Graph(n, edges)


def _random_digraph(rng: random.Random, n: int) -> Digraph:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            pick = rng.randrange(3)
            if pick == 1:
                arcs.append((u, v))
            elif pick == 2:
                arcs.append((v, u))
    return Digraph(n, tuple(arcs))


def _validate_witness(graph: Graph, witness: OrientabilityWitness) -> None:
    _expect(is_friendly(witness.labeling), "witness labeling is not friendly")
    gam = gamma_triple(orient(graph, witness.orientation), witness.labeling)
    _expect(gam == witness.gamma, "witness gamma does not recompute")
    _expect(is_balanced_triple(gam), "witness gamma is not balanced")


def _orientable_by_orientation_scan(graph: Graph) -> bool:
    """Oracle: try all 2^m orientations, each with a full labeling scan."""
    n = graph.vertex_count
    edges = graph.edges
    sizes = {n // 2, (n + 1) // 2}
    masks = [mask for mask in range(1 << n) if mask.bit_count() in sizes]
    for bits in range(1 << len(edges)):
        arcs = tuple([
            (v, u) if (bits >> j) & 1 else (u, v) for j, (u, v) in enumerate(edges)
        ])
        for mask in masks:
            counts = [0, 0, 0]  # arcs labeled 0, +1 and -1 (index -1)
            for t, h in arcs:
                counts[((mask >> h) & 1) - ((mask >> t) & 1)] += 1
            if max(counts) - min(counts) <= 1:
                return True
    return False


def _orientable_by_split_scan(graph: Graph) -> bool:
    """Oracle factored by labeling: enumerate the direction choices of the
    bichromatic edges for each friendly labeling (same-label edges keep
    their arc label 0 whichever way they point)."""
    n = graph.vertex_count
    edges = graph.edges
    sizes = {n // 2, (n + 1) // 2}
    for mask in range(1 << n):
        if mask.bit_count() not in sizes:
            continue
        mono = 0
        bi = 0
        for u, v in edges:
            if ((mask >> u) ^ (mask >> v)) & 1:
                bi += 1
            else:
                mono += 1
        for dirs in range(1 << bi):
            alpha = dirs.bit_count()
            trio = (alpha, bi - alpha, mono)
            if max(trio) - min(trio) <= 1:
                return True
    return False


def _all_graphs(n: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for gbits in range(1 << len(pairs)):
        yield Graph(
            n, tuple([p for j, p in enumerate(pairs) if (gbits >> j) & 1])
        )


def _cyclic_table(q: int) -> CayleyTable:
    return CayleyTable(tuple(tuple((i + j) % q for j in range(q)) for i in range(q)))


def _klein_table() -> CayleyTable:
    return CayleyTable(tuple(tuple(i ^ j for j in range(4)) for i in range(4)))


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def _check_alternating_p10() -> str:
    d = alternating_path(10)
    count = 0
    for lab in friendly_labelings(10):
        count += 1
        _expect(
            not is_balanced_triple(gamma_triple(d, lab)),
            lambda: f"balanced gamma found at labeling {lab.bit_string()}",
        )
    _expect(count == 252, lambda: f"expected 252 friendly labelings, saw {count}")
    from . import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["check-digraph", "alternating_path:10"])
    _expect(code == 1, lambda: f"check-digraph exited {code}, expected 1")
    _expect(
        "no cordial labeling" in buf.getvalue(),
        "check-digraph report missing 'no cordial labeling'",
    )
    return "all 252 friendly labelings unbalanced; check-digraph exits 1"


def _check_p10_orientation_census() -> str:
    g = path_graph(10)
    full = noncordial_orientations(g, SymmetryMode.NONE)
    _expect(
        full.total_orientations_scanned == 512,
        lambda: f"scanned {full.total_orientations_scanned}, expected 512",
    )
    bits = [o.bits for o in full.noncordial]
    _expect(
        bits == [170, 341],
        lambda: f"non-cordial orientations {bits}, expected [170, 341]",
    )
    _expect(
        full.noncordial[0].bit_string() == "010101010",
        "first failure is not the alternating orientation",
    )
    for o in full.noncordial:
        _expect(
            is_cordial(orient(g, o)) is None,
            lambda: f"listed orientation {o.bit_string()} re-checks cordial",
        )
    fixed = noncordial_orientations(g, SymmetryMode.FIX_FIRST_ARC)
    _expect(
        fixed.total_orientations_scanned == 256,
        lambda: f"fixed-arc scan covered {fixed.total_orientations_scanned}, expected 256",
    )
    _expect(
        [o.bits for o in fixed.noncordial] == [170],
        "fixed-arc scan should keep exactly the alternating orientation",
    )
    return "512 orientations: failures are exactly 010101010 and its reversal"


def _check_path_landscape() -> str:
    r4 = noncordial_orientations(path_graph(4))
    _expect(len(r4.noncordial) >= 1, "P4 should have a non-cordial orientation")
    _expect(
        any(o.bits == 4 for o in r4.noncordial),
        "orientation bits 001 missing from P4 failures",
    )
    for n in range(5, 10):
        rep = noncordial_orientations(path_graph(n))
        _expect(
            not rep.noncordial,
            lambda: f"P{n} unexpectedly has non-cordial orientations",
        )
    t0 = time.perf_counter()
    failing = scan_alternating_paths(22)
    dp_time = time.perf_counter() - t0
    _expect(failing == [10, 22], lambda: f"alternating scan returned {failing}")
    _expect(dp_time < 10.0, lambda: f"DP route took {dp_time:.1f}s, budget 10s")
    # The direct scan reads the kernel's leaves over every friendly
    # labeling, vertex 0 free, not the DP route it cross-checks, and
    # counts the labelings from the leaves' friendly lanes.
    d22 = alternating_path(22)
    t1 = time.perf_counter()
    count = passing = 0
    for _, friendly, passed in _sliced_leaves(22, d22.arcs, True, False):
        count += friendly.bit_count()
        passing |= passed
    direct_ms = (time.perf_counter() - t1) * 1e3
    _expect(not passing, "direct scan found a cordial labeling at n=22")
    _expect(count == 705432, lambda: f"direct scan covered {count} labelings")
    _expect(direct_ms < 60e3, lambda: f"direct scan took {direct_ms:.1f} ms, budget 60 s")
    return (
        f"P4 fails, P5-P9 clean, alternating failures {failing}; "
        f"n=22 direct scan of {count} labelings in {direct_ms:.1f} ms"
    )


def _check_window_missed(graph: Graph, what: str, m: int) -> str:
    """The graph has m edges, and no friendly labeling's monochromatic
    count reaches the balanced window."""
    _expect(graph.edge_count == m, lambda: f"{what} should have {m} edges")
    window = {m - k for k in _balanced(m)}
    count = 0
    for lab in friendly_labelings(graph.vertex_count):
        count += 1
        _expect(
            lambda_count(graph, lab) not in window,
            lambda: f"labeling {lab.bit_string()} reaches the window {sorted(window)}",
        )
    _expect(count == 252, lambda: f"scanned {count} labelings, expected 252")
    _expect(is_orientable(graph) is None, lambda: f"{what} reported orientable")
    return "all 252 friendly labelings miss the window; not orientable"


def _check_window_crossvalidation() -> str:
    checked = 0
    for n in range(1, 6):
        for g in _all_graphs(n):
            if not _connected(g):
                continue
            checked += 1
            witness = is_orientable(g)
            oracle = _orientable_by_orientation_scan(g)
            _expect(
                (witness is not None) == oracle,
                lambda: f"window test disagrees with orientation scan on n={n} "
                f"edges={g.edges}",
            )
            if witness is not None:
                _validate_witness(g, witness)
    rng = random.Random(64823)
    sampled = 0
    for _ in range(200):
        n = rng.choice((6, 7))
        g = _random_graph(rng, n)
        sampled += 1
        witness = is_orientable(g)
        oracle = _orientable_by_split_scan(g)
        _expect(
            (witness is not None) == oracle,
            lambda: f"window test disagrees with split scan on n={n} edges={g.edges}",
        )
        if witness is not None:
            _validate_witness(g, witness)
    return f"{checked} connected graphs on <=5 vertices + {sampled} random graphs agree"


def _check_edge_bound() -> str:
    _expect(z_value(6) == 6, lambda: f"z_value(6) = {z_value(6)}, expected 6")
    _expect(max_edges(6) == 14, lambda: f"max_edges(6) = {max_edges(6)}, expected 14")
    _expect(max_edges(7) == 19, lambda: f"max_edges(7) = {max_edges(7)}, expected 19")
    for n in range(6, 101):
        _expect(complete_graph_zero_excess(n), lambda: f"Z <= C(n,2)/3 at n={n}")
    parts = []
    for n in (6, 7):
        rep = verify_bound(n)
        _expect(
            rep.tight_witness is not None,
            lambda: f"no orientable witness at {max_edges(n)} edges for n={n}",
        )
        tight_graph = rep.tight_witness.orientation.graph
        _expect(
            tight_graph.edge_count == max_edges(n),
            lambda: f"tightness witness for n={n} has {tight_graph.edge_count} edges",
        )
        _validate_witness(tight_graph, rep.tight_witness)
        _expect(
            not rep.violations,
            lambda: f"{len(rep.violations)} graphs on {n} vertices exceed "
            f"max_edges({n})={max_edges(n)} yet are orientable; first violation "
            f"has {rep.violations[0].edge_count} edges: {rep.violations[0].edges}",
        )
        parts.append(f"n={n}: {rep.graphs_checked} graphs checked, tight at {max_edges(n)}")
    return "; ".join(parts)


def _check_tournaments() -> str:
    s3 = tournament_survey(3)
    _expect(
        s3.total == 8 and s3.noncordial_count == 0,
        lambda: f"n=3 survey {s3}, expected 8 tournaments all cordial",
    )
    s4 = tournament_survey(4)
    _expect(
        s4.total == 64 and s4.noncordial_count > 0,
        lambda: f"n=4 survey {s4}, expected some non-cordial tournaments",
    )
    s5 = tournament_survey(5)
    _expect(
        s5.total == 1024 and s5.noncordial_count == 0,
        lambda: f"n=5 survey {s5}, expected 1024 tournaments all cordial",
    )
    s6 = tournament_survey(6)
    _expect(
        s6.total == 32768 and s6.noncordial_count == 32768,
        lambda: f"n=6 survey {s6}, expected all 32768 non-cordial",
    )
    g6 = complete_graph(6)
    _expect(
        all(lambda_count(g6, lab) != 5 for lab in friendly_labelings(6)),
        "some friendly labeling of K6 reaches 5 monochromatic edges",
    )
    return (
        f"n=3: 0/8, n=4: {s4.noncordial_count}/64, n=5: 0/1024, "
        f"n=6: 32768/32768 non-cordial"
    )


def _check_gamma_symmetries() -> str:
    rng = random.Random(90125)
    for _ in range(1000):
        n = rng.randrange(1, 9)
        d = _random_digraph(rng, n)
        lab = VertexLabeling(n, rng.randrange(1 << n))
        alpha, beta, zero = gamma_triple(d, lab)
        _expect(
            gamma_triple(reverse(d), lab) == (beta, alpha, zero),
            lambda: f"arc reversal identity fails on {d}",
        )
        _expect(
            gamma_triple(d, lab.complement()) == (beta, alpha, zero),
            lambda: f"label complement identity fails on {d}",
        )
        _expect(
            gamma_triple(reverse(d), lab.complement()) == (alpha, beta, zero),
            lambda: f"combined identity fails on {d}",
        )
    for _ in range(1000):
        n = rng.randrange(1, 9)
        g = _random_graph(rng, n)
        m = g.edge_count
        o = Orientation(g, rng.randrange(1 << m) if m else 0)
        lab = VertexLabeling(n, rng.randrange(1 << n))
        _expect(
            gamma_triple(orient(g, o), lab).gamma_zero == lambda_count(g, lab),
            lambda: f"gamma_zero depends on orientation for {g}",
        )
    return "1000 symmetry triples + 1000 orientation-invariance triples hold"


def _check_quasigroup_equivalence() -> str:
    inst = z3_minus_instance()

    def check_equiv(d: Digraph) -> None:
        q_witness = is_subset_q_cordial(d, inst)
        c_report = is_cordial(d)
        _expect(
            (q_witness is None) == (c_report is None),
            lambda: f"quasigroup engine disagrees on {d}",
        )
        if q_witness is not None:
            lab = VertexLabeling.from_labels(q_witness)
            _expect(
                is_friendly(lab) and is_balanced_triple(gamma_triple(d, lab)),
                lambda: f"quasigroup witness fails validation on {d}",
            )

    pairs = 0
    for n in range(2, 9):
        g = path_graph(n)
        for o in orientations(g):
            check_equiv(orient(g, o))
            pairs += 1
    rng = random.Random(40351)
    for _ in range(200):
        n = rng.randrange(1, 9)
        check_equiv(_random_digraph(rng, n))
        pairs += 1
    tables = [_cyclic_table(q) for q in range(1, 6)] + [_klein_table()]
    swaps = 0
    for table in tables:
        _expect(validate_latin(table), lambda: f"group table of order {table.order} rejected")
        q = table.order
        for i in range(q):
            for a in range(q):
                for b in range(a + 1, q):
                    rows = [list(r) for r in table.rows]
                    rows[i][a], rows[i][b] = rows[i][b], rows[i][a]
                    _expect(
                        not validate_latin(rows),
                        lambda: f"swap in row {i} of order-{q} table not rejected",
                    )
                    swaps += 1
    return f"{pairs} digraphs agree with the direct engine; {swaps} corrupted tables rejected"


def _check_path_dp() -> str:
    # The kernel itself, not is_cordial: the DP shares its layer builder
    # with is_cordial's sparse route.
    count = 0
    for n in range(2, 11):
        g = path_graph(n)
        for o in orientations(g):
            d = orient(g, o)
            dp_witness = path_cordial_dp(d)
            direct = _scan_first_mask(n, d.arcs, True)
            _expect(
                (dp_witness is None) == (direct is None),
                lambda: f"DP disagrees with the scan on n={n} bits={o.bit_string()}",
            )
            if dp_witness is not None:
                _expect(
                    is_friendly(dp_witness)
                    and is_balanced_triple(gamma_triple(d, dp_witness)),
                    lambda: f"DP witness fails validation on n={n} bits={o.bit_string()}",
                )
                _expect(
                    dp_witness.mask == direct,
                    lambda: f"DP witness is not the scan's on n={n} bits={o.bit_string()}",
                )
            count += 1
    return f"{count} oriented paths cross-validated"


ALL_CHECKS: tuple[Check, ...] = (
    Check("alternating-p10-no-cordial-labeling", 1.0, _check_alternating_p10),
    Check("p10-orientation-census", 5.0, _check_p10_orientation_census),
    Check("path-family-landscape", 75.0, _check_path_landscape),
    Check(
        "deg3-tree-not-orientable",
        1.0,
        lambda: _check_window_missed(counterexample_tree(), "tree", 9),
    ),
    Check(
        "petersen-not-orientable",
        1.0,
        lambda: _check_window_missed(petersen_graph(), "Petersen graph", 15),
    ),
    Check("orientability-window-crosscheck", 60.0, _check_window_crossvalidation),
    Check("edge-count-bound", 30.0, _check_edge_bound),
    Check("tournament-census", 60.0, _check_tournaments),
    Check("gamma-symmetry-identities", 10.0, _check_gamma_symmetries),
    Check("quasigroup-instance-equivalence", 30.0, _check_quasigroup_equivalence),
    Check("path-dp-crosscheck", 30.0, _check_path_dp),
)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def all_checks(names: list[str] | None = None) -> list[CheckResult]:
    """Run the verification checks, optionally a named subset, on every
    usable CPU (see the module docstring); results come in declared order."""
    selected = ALL_CHECKS
    if names:
        known = {c.name for c in ALL_CHECKS}
        unknown = [x for x in names if x not in known]
        if unknown:
            raise ValueError(f"unknown check names: {', '.join(unknown)}")
        selected = [c for c in ALL_CHECKS if c.name in names]
    workers = min(_usable_cpus(), len(selected)) - 1
    # A process with other threads running must not fork (Python 3.12
    # warns): a forked child gets only the calling thread and whatever
    # locks the others held.
    if workers > 0 and hasattr(os, "fork") and threading.active_count() == 1:
        return _run_forked(selected, workers)
    return [check.run() for check in selected]


def _run_forked(checks: Sequence[Check], workers: int) -> list[CheckResult]:
    """Run the checks here and in up to ``workers`` forked processes.

    Each process reads one check index at a time from a shared pipe,
    largest budget first, and runs it; a worker pickles each result back
    through a pipe of its own and leaves by ``os._exit``.  The workers
    are killed and reaped however this returns, and a check that no
    process reported (its worker died) runs here afterwards.
    """
    import pickle
    import signal

    order = sorted(range(len(checks)), key=lambda i: -checks[i].budget_seconds)
    tasks, feed = os.pipe()
    # One byte per index (there are far fewer than 256 checks), written
    # in one piece before any reader starts.
    os.write(feed, bytes(order))
    os.close(feed)

    def pulled() -> Iterator[int]:
        while index := os.read(tasks, 1):
            yield index[0]

    done: dict[int, CheckResult] = {}
    pids: list[int] = []
    inbox: list[int] = []  # read ends of the workers' result pipes
    try:
        for _ in range(workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # run with the workers forked so far
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                code = 1
                try:
                    for fd in (r, *inbox):
                        os.close(fd)
                    with open(w, "wb") as out:
                        for i in pulled():
                            pickle.dump((i, checks[i].run()), out)
                            out.flush()
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pids.append(pid)
            inbox.append(r)
        for i in pulled():
            done[i] = checks[i].run()
        while inbox:
            with open(inbox.pop(), "rb") as results:
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    while True:
                        i, result = pickle.load(results)
                        done[i] = result
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in (tasks, *inbox):
            os.close(fd)
    return [done[i] if i in done else c.run() for i, c in enumerate(checks)]
