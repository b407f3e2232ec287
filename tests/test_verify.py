"""``Check.run`` turns every way a check body can end into a result."""

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
