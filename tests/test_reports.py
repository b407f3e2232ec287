"""``RunReport``'s JSON form follows the dataclass's fields."""

import json
from dataclasses import fields

import pytest

from cordial.cli import RunReport

REPORT = RunReport(
    command="check-graph",
    inputs={"source": "path:4"},
    verdicts={"orientable": True, "gamma": [1, 1, 1]},
    timing_seconds=0.5,
)


def test_json_keys_are_the_fields_in_order():
    assert list(json.loads(REPORT.to_json())) == [f.name for f in fields(RunReport)]


@pytest.mark.parametrize("missing", [f.name for f in fields(RunReport)])
def test_json_with_a_missing_key_is_rejected(missing):
    data = json.loads(REPORT.to_json())
    del data[missing]
    with pytest.raises(KeyError, match=missing):
        RunReport.from_json(json.dumps(data))
