"""tools/compare.py: the summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare.py"
_spec = importlib.util.spec_from_file_location("compare", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def _run(pair, side, **values):
    metrics = {name: {"value": v, "unit": "s"} for name, v in values.items()}
    return {"pair": pair, "side": side,
            "result": {"correct": True, "metrics": metrics}}


def test_summary_counts_wins_by_each_metrics_direction():
    parent = [(1.0, 0.5), (1.2, 0.9), (1.1, 1.0), (1.3, 0.7)]
    change = [(0.9, 0.6), (1.2, 0.8), (1.0, 1.0), (1.4, 0.8)]
    runs = [_run(p, side, t=t, frac=f)
            for side, rows in (("parent", parent), ("change", change))
            for p, (t, f) in enumerate(rows)]
    s = compare.summarize(runs, {"t": "lower", "frac": "higher"})
    assert s["pairs"] == 4
    # t: the change is lower in pairs 0 and 2, tied in 1, higher in 3;
    # frac: higher in 0 and 3, tied in 2
    assert s["wins"] == {"t": 2, "frac": 2}
    assert s["parent"]["t"] == {"median": pytest.approx(1.15),
                                "quartiles": pytest.approx([1.075, 1.15,
                                                            1.225]),
                                "runs": 4}
    assert s["spread"]["t"] == pytest.approx(0.15)
    assert s["median_change_pct"]["t"] == pytest.approx(
        100 * (1.1 - 1.15) / 1.15)


def test_one_run_is_its_own_quartiles():
    assert compare.quartiles([2.5]) == [2.5, 2.5, 2.5]
