"""Smoke test of the benchmark itself, at a tiny size.  It is kept out of
the tier-1 suite; run it with

    python3 -m pytest -q perfbench/test_smoke.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = run.load_spec()


def tiny(name, trace=False):
    return run.measure(name, 3, 0.01, trace=trace, tiny=True, probes=1)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    record = tiny(name, trace)
    line = run.result_line(record, SPEC)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    if trace:
        assert record["metrics"]["tracing.op_coverage"][0] >= run.MIN_COVERAGE


def test_wrong_expected_answer_raises_fail_ratio(monkeypatch):
    import oracle
    monkeypatch.setitem(oracle.ANALYZE, "ex31",
                        {**oracle.ANALYZE["ex31"], "q": [3, 2]})
    record = tiny("fixtures")
    assert record["metrics"]["fail_ratio"][0] > 0
    assert not run.result_line(record, SPEC)["correct"]
