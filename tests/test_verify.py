"""``Check.run`` turns every way a check body can end into a result, and
``all_checks`` gives the same results on one CPU or spread over several."""

import os
import time

import pytest

from cordial import verify
from cordial.verify import Check, CheckFailure, CheckResult


def fail():
    raise CheckFailure("expected 3, found 4")


def crash():
    raise ValueError("boom")


def finish():
    return "done"


@pytest.mark.parametrize(
    "body, budget, passed, details",
    [
        (fail, 1.0, False, "expected 3, found 4"),
        (crash, 1.0, False, "unexpected error: ValueError('boom')"),
        (finish, 1.0, False, "done (took 2.5s, budget 1s)"),
        (finish, 3.0, True, "done"),
    ],
)
def test_run(monkeypatch, body, budget, passed, details):
    # Each run reads the clock twice; this one makes every body take 2.5 s.
    monkeypatch.setattr(verify.time, "perf_counter", iter([10.0, 12.5]).__next__)
    assert Check("c", budget, body).run() == CheckResult("c", passed, details, 2.5, budget)


@pytest.mark.usefixtures("orientable_above_ceiling")
def test_edge_count_bound_reports_a_violation():
    (result,) = verify.all_checks(["edge-count-bound"])
    assert not result.passed
    assert result.details.startswith(
        "1 graphs on 6 vertices exceed max_edges(6)=14 yet are orientable; "
        "first violation has 15 edges"
    )


@pytest.fixture
def cpus(monkeypatch):
    """Claim three usable CPUs, so ``all_checks`` forks on any host."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 3)


def _checks(monkeypatch, body, count=2):
    monkeypatch.setattr(
        verify, "ALL_CHECKS", tuple(Check(f"c{i}", 90.0, body) for i in range(count))
    )


@pytest.mark.usefixtures("cpus")
def test_forked_results_match_the_serial_loop(monkeypatch):
    fork = os.fork
    forks = []

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    forked = [(r.name, r.passed) for r in verify.all_checks()]
    assert len(forks) == 2
    monkeypatch.delattr(os, "fork")
    serial = [(r.name, r.passed) for r in verify.all_checks()]
    assert forked == serial == [(c.name, True) for c in verify.ALL_CHECKS]


@pytest.mark.usefixtures("cpus")
def test_a_failed_fork_runs_every_check_here(monkeypatch):
    def refuse():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", refuse)
    _checks(monkeypatch, finish, 3)
    assert [(r.name, r.details) for r in verify.all_checks()] == [
        ("c0", "done"), ("c1", "done"), ("c2", "done")
    ]


def test_a_check_whose_worker_dies_runs_in_the_parent(monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    parent = os.getpid()
    log = tmp_path / "pids"
    log.touch()

    def body():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != parent:
            os._exit(3)
        # Hold this check until the worker has taken the other one.
        deadline = time.monotonic() + 30
        while log.read_text().split() == [str(parent)] and time.monotonic() < deadline:
            time.sleep(0.01)
        return "ran here"

    _checks(monkeypatch, body)
    results = verify.all_checks()
    assert [(r.name, r.passed, r.details) for r in results] == [
        ("c0", True, "ran here"), ("c1", True, "ran here")
    ]
    assert set(log.read_text().split()) - {str(parent)}, "no worker took a check"


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("cpus")
def test_no_worker_outlives_a_return():
    results = verify.all_checks(
        ["edge-count-bound", "tournament-census", "petersen-not-orientable"]
    )
    assert all(r.passed for r in results)
    _no_children_left()


def test_no_worker_outlives_an_interrupt(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def body():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return "slept"

    _checks(monkeypatch, body)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.all_checks()
    assert time.monotonic() - t0 < 30, "the sleeping worker was not killed"
    _no_children_left()


@pytest.mark.usefixtures("cpus")
def test_one_check_never_forks(monkeypatch):
    def refuse():
        raise AssertionError("forked for one check")

    monkeypatch.setattr(os, "fork", refuse)
    (result,) = verify.all_checks(["edge-count-bound"])
    assert result.passed
