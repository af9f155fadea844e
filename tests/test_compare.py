"""tools/compare.py: the summary of alternating benchmark pairs, of
traced passes, and the listing of differing classify runs."""

import importlib.util
import io
import json
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


def _write_runs(root, runs):
    """A tree of classify runs as --decisions keeps them: per input its
    .mspec, .exit, .stdout, .stderr and, unless None, .json."""
    for name, (code, stdout, stderr, report) in runs.items():
        stem = root / name
        stem.parent.mkdir(parents=True, exist_ok=True)
        stem.with_suffix(".mspec").write_text("dim = 3\n")
        stem.with_suffix(".exit").write_text(f"{code}\n")
        stem.with_suffix(".stdout").write_text(stdout)
        stem.with_suffix(".stderr").write_text(stderr)
        if report is not None:
            stem.with_suffix(".json").write_text(json.dumps(report, indent=2))


REPORT = {"verdict": "not", "k_provenance": "from-L",
          "genericity": {"weakly_generic": True,
                         "per_point": [{"c3": 2.0, "dim": 0},
                                       {"c3": -3.0, "dim": 0}]},
          "residuals": {"E": {"max": 1e-3, "scale": 2.0}},
          "nan": float("nan"), "notes": []}


def _moved(report, **changes):
    out = json.loads(json.dumps(report))
    for path, value in changes.items():
        node = out
        *keys, last = path.split("/")
        for k in keys:
            node = node[int(k)] if isinstance(node, list) else node[k]
        node[int(last) if isinstance(node, list) else last] = value
    return out


def test_decision_listing_of_two_report_trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    same = (1, "", "", REPORT)
    _write_runs(parent, {
        "catalog-seed0/a": same,
        "catalog-seed0/b": (1, "", "", REPORT),
        "catalog-seed0/c": same,
        "dense4-seed0/dense4": same,
        "inputs/gone": same,
        "points-seed0/d": (1, "", "", REPORT),
    })
    _write_runs(change, {
        "catalog-seed0/a": same,
        # a decision and two floats move; NaN on both sides is no move
        "catalog-seed0/b": (0, "", "", _moved(
            REPORT, verdict="conformally-einstein",
            **{"genericity/per_point/1/c3": -3.5,
               "genericity/per_point/0/dim": 1.0,
               "residuals/E/max": 2e-3})),
        "catalog-seed0/c": (1, "", "warning\n", REPORT),
        "dense4-seed0/dense4": same,
        # the report is gone: a crash
        "points-seed0/d": (4, "", "internal error\n", None),
    })
    (change / "dense4-seed0" / "dense4.mspec").write_text("dim = 4\n")
    listing = compare.decision_diffs(parent, change)
    by_input = {row["input"]: row for row in listing}
    assert list(by_input) == ["catalog-seed0/b", "catalog-seed0/c",
                              "dense4-seed0/dense4", "inputs/gone",
                              "points-seed0/d"]
    b = by_input["catalog-seed0/b"]
    assert b["differ"] == ["exit", "json"]
    assert b["exit"] == {"parent": 1, "change": 0}
    assert b["changed"] == [{"path": "verdict", "parent": "not",
                             "change": "conformally-einstein"}]
    moved = {m["path"]: m for m in b["moved"]}
    assert list(moved) == ["genericity.per_point[0].dim",
                           "genericity.per_point[1].c3", "residuals.E.max"]
    assert moved["genericity.per_point[0].dim"]["abs"] == 1.0
    assert moved["genericity.per_point[1].c3"]["abs"] == 0.5
    assert moved["genericity.per_point[1].c3"]["rel"] == 0.5 / 3.0
    assert moved["residuals.E.max"]["abs"] == pytest.approx(1e-3)
    assert moved["residuals.E.max"]["rel"] == pytest.approx(1e-3)
    assert by_input["catalog-seed0/c"]["differ"] == ["stderr"]
    assert "changed" not in by_input["catalog-seed0/c"]
    assert by_input["dense4-seed0/dense4"]["differ"] == ["mspec"]
    assert by_input["inputs/gone"]["differ"] == list(compare.RUN_PARTS)
    assert by_input["inputs/gone"]["exit"] == {"parent": 1, "change": None}
    d = by_input["points-seed0/d"]
    assert d["differ"] == ["exit", "stderr", "json"]
    assert "changed" not in d
    text = compare.format_listing(listing)
    assert text[0] == "catalog-seed0/b: exit, json differ (exit 1 -> 0)"
    assert "  verdict: 'not' -> 'conformally-einstein'" in text
    assert ("  genericity.per_point[1].c3: -3.0 -> -3.5 (abs 0.5, rel "
            "0.167)") in text
    assert compare.decision_diffs(parent, parent) == []


def test_a_key_on_one_side_is_a_changed_field():
    changed, moved = compare.report_changes({"a": 1.0, "b": [True]},
                                            {"a": 1.0, "b": [1], "c": 2.0})
    assert changed == [{"path": "b[0]", "parent": True, "change": 1},
                       {"path": "c", "parent": None, "change": 2.0}]
    assert moved == []


def test_traced_pairs_alternate_and_summarize_every_layer(monkeypatch,
                                                         tmp_path):
    calls = []

    def fake_run_bench(root, workload, seed, seconds, trace=0):
        calls.append((root.name, trace))
        value = {"parent": 2.0, "change": 1.0}[root.name] + len(calls) / 100
        return {"correct": True,
                "metrics": {"cli.classify_s": {"value": value, "unit": "s"},
                            "new.layer_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(compare, "run_bench", fake_run_bench)
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    # the metrics' directions come from the change's BENCHMARK.json
    (change / "BENCHMARK.json").write_bytes(
        (_PATH.parents[1] / "BENCHMARK.json").read_bytes())
    entry = compare.compare(parent, change, "dense4", 0, pairs=0,
                            seconds=1.0, trace=3, log=io.StringIO())
    assert calls == [("parent", 1), ("change", 1), ("change", 1),
                     ("parent", 1), ("parent", 1), ("change", 1)]
    assert set(entry) == {"traced", "traced_runs"}
    traced = entry["traced"]
    assert traced["pairs"] == 3
    assert traced["wins"] == {"cli.classify_s": 3, "new.layer_s": 3}
    assert traced["parent"]["cli.classify_s"]["median"] == pytest.approx(
        2.04)
    assert traced["change"]["new.layer_s"]["runs"] == 3
