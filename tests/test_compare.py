"""tools/compare.py: the summary of alternating benchmark pairs, of
traced passes, the inputs and runs of --decisions, and the listing of
differing runs."""

import importlib.util
import io
import json
from pathlib import Path
from types import SimpleNamespace

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


def _write_runs(root, runs, command="classify"):
    """A tree of runs of one command as --decisions keeps them: per input
    its .mspec and its NAME.COMMAND.exit, .stdout, .stderr and, unless
    None, .json."""
    for name, (code, stdout, stderr, report) in runs.items():
        stem = root / f"{name}.{command}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        (root / f"{name}.mspec").write_text("dim = 3\n")
        for part, text in (("exit", f"{code}\n"), ("stdout", stdout),
                           ("stderr", stderr)):
            stem.with_name(f"{stem.name}.{part}").write_text(text)
        if report is not None:
            stem.with_name(f"{stem.name}.json").write_text(
                json.dumps(report, indent=2))


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
    assert {row["command"] for row in listing} == {"classify"}
    text = compare.format_listing(listing)
    assert text[0] == ("catalog-seed0/b classify: exit, json differ "
                       "(exit 1 -> 0)")
    assert "  verdict: 'not' -> 'conformally-einstein'" in text
    assert ("  genericity.per_point[1].c3: -3.0 -> -3.5 (abs 0.5, rel "
            "0.167)") in text
    assert compare.decision_diffs(parent, parent) == []


def test_each_command_of_an_input_is_its_own_run(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    same = (0, "", "", REPORT)
    for command in compare.COMMANDS:
        _write_runs(parent, {"catalog-seed0/a": same, "catalog-seed0/b": same},
                    command)
        _write_runs(change, {"catalog-seed0/a": same, "catalog-seed0/b": same},
                    command)
    # invariants moves a float of b, tractor crashes on a
    _write_runs(change, {"catalog-seed0/b": (0, "", "", _moved(
        REPORT, **{"residuals/E/max": 2e-3}))}, "invariants")
    _write_runs(change, {"catalog-seed0/a": (4, "", "boom\n", None)},
                "tractor")
    (change / "catalog-seed0" / "a.tractor.json").unlink()
    listing = compare.decision_diffs(parent, change)
    assert [(row["input"], row["command"], row["differ"])
            for row in listing] == [
        ("catalog-seed0/a", "tractor", ["exit", "stderr", "json"]),
        ("catalog-seed0/b", "invariants", ["json"])]
    assert [m["path"] for m in listing[1]["moved"]] == ["residuals.E.max"]
    assert compare.format_listing(listing)[0] == (
        "catalog-seed0/a tractor: exit, stderr, json differ (exit 0 -> 4)")


def test_every_command_runs_on_every_input(tmp_path, monkeypatch):
    calls, queries = [], []
    every = {3: "E,cspace,bach", 4: "E,cspace,bach,F1,F2,G,Gbar,dim4",
             5: "E,cspace,bach,F1,F2,G,Gbar"}

    class Done:
        returncode, stdout, stderr = 1, b"out", b""

    def fake_run(argv, cwd, env, stdin, capture_output):
        if argv[1] == "-c":
            # the side's invariants of dimension argv[3]
            queries.append((Path(cwd).name, int(argv[3])))
            return SimpleNamespace(returncode=0, stderr=b"",
                                   stdout=every[int(argv[3])].encode())
        calls.append((Path(cwd).name, argv[3:]))
        return Done()

    monkeypatch.setattr(compare.subprocess, "run", fake_run)
    for name, n in (("three", 3), ("four", 4), ("five", 5)):
        (tmp_path / "w").mkdir(exist_ok=True)
        (tmp_path / "w" / f"{name}.mspec").write_text(
            f"# {name}\ndim = {n}\ncoords = x\n")
    compare.run_tree(tmp_path, tmp_path / "w", log=io.StringIO())
    # the invariants of each dimension are asked of the side's root
    assert queries == [(tmp_path.name, n) for n in (5, 4, 3)]
    want = []
    for name, n in (("five", 5), ("four", 4), ("three", 3)):
        want += [
            ("w", ["classify", f"{name}.mspec", "--json",
                   f"{name}.classify.json"]),
            ("w", ["invariants", f"{name}.mspec", "--which", every[n],
                   "--json", f"{name}.invariants.json"]),
            ("w", ["invariants", f"{name}.mspec", "--which", every[n],
                   "--upsilon", "x/4", "--json",
                   f"{name}.invariants-upsilon.json"]),
            ("w", ["identities", f"{name}.mspec", "--json",
                   f"{name}.identities.json"]),
            ("w", ["tractor", f"{name}.mspec", "--sigma", "1", "--json",
                   f"{name}.tractor.json"])]
    assert calls == want
    assert (tmp_path / "w" / "four.tractor.exit").read_text() == "1\n"
    assert (tmp_path / "w" / "four.tractor.stdout").read_bytes() == b"out"


def test_each_side_writes_its_workloads_and_the_many_point_inputs(
        tmp_path, monkeypatch):
    # the many-point list is exported by the side's own catalog, at each
    # seed, under many-seed<S>/NAME-COUNT.mspec; small counts keep it fast
    monkeypatch.setattr(compare, "MANY_POINTS",
                        (("rt4-quartic", 3), ("rt6-quartic", 2)))
    root = _PATH.parents[1]
    compare.write_side_inputs(root, ["dense4"], [0, 1], [], tmp_path)
    got = sorted(p.relative_to(tmp_path).as_posix()
                 for p in tmp_path.rglob("*.mspec"))
    assert got == ["dense4-seed0/dense4.mspec", "dense4-seed1/dense4.mspec",
                   "many-seed0/rt4-quartic-3.mspec",
                   "many-seed0/rt6-quartic-2.mspec",
                   "many-seed1/rt4-quartic-3.mspec",
                   "many-seed1/rt6-quartic-2.mspec"]
    rt4 = tmp_path / "many-seed1" / "rt4-quartic-3.mspec"
    assert compare.header_of(rt4) == (4, "u")
    points = [line for line in rt4.read_text().splitlines()
              if line.startswith("point =")]
    assert len(points) == 3
    assert points != [line for line in (
        tmp_path / "many-seed0" / "rt4-quartic-3.mspec").read_text(
        ).splitlines() if line.startswith("point =")]


def _side_with_table(root, rows):
    """A checkout whose `obstructions.INVARIANTS` has a row per name of
    `rows`, defined from the dimension it maps to on, and whose CLI prints
    its arguments."""
    pkg = root / "src" / "confein"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "obstructions.py").write_text(
        "class Row:\n"
        "    def __init__(self, low):\n"
        "        self.low = low\n"
        "    def defined(self, n):\n"
        "        return n >= self.low\n"
        f"INVARIANTS = {{name: Row(low) for name, low in {rows!r}.items()}}\n")
    (pkg / "cli.py").write_text("import sys\nprint(*sys.argv[1:])\n")


def test_each_side_runs_the_invariants_of_its_own_table(tmp_path):
    # the change's table has one row more than the parent's, defined from
    # n = 5 on: only its runs at n = 5 name it
    rows = {"E": 3, "F1": 4}
    _side_with_table(tmp_path / "parent", rows)
    _side_with_table(tmp_path / "change", {**rows, "new": 5})
    trees = {side: tmp_path / "work" / side for side in compare.SIDES}
    for side, tree in trees.items():
        tree.mkdir(parents=True)
        for name, n in (("a", 4), ("b", 5), ("c", 5)):
            (tree / f"{name}.mspec").write_text(
                f"dim = {n}\ncoords = x, y\n")
        compare.run_tree(tmp_path / side, tree, log=io.StringIO())
    for run in ("invariants", "invariants-upsilon"):
        which = {(side, name): (tree / f"{name}.{run}.stdout").read_text()
                 .split()[3] for side, tree in trees.items()
                 for name in "abc"}
        assert which == {
            ("parent", "a"): "E,F1", ("parent", "b"): "E,F1",
            ("parent", "c"): "E,F1", ("change", "a"): "E,F1",
            ("change", "b"): "E,F1,new", ("change", "c"): "E,F1,new"}
    listing = compare.decision_diffs(trees["parent"], trees["change"])
    assert [(row["input"], row["command"], row["differ"])
            for row in listing] == [
        ("b", "invariants", ["stdout"]),
        ("b", "invariants-upsilon", ["stdout"]),
        ("c", "invariants", ["stdout"]),
        ("c", "invariants-upsilon", ["stdout"])]


def test_a_moved_maximum_is_scaled_by_its_sibling_scale():
    parent = {"residuals": {"cspace": {"max": 1e-12, "scale": 4e3},
                            "E": {"max": 1e-9}},
              "invariants": {"F1": {"max": 2.0, "scale": 0.0}},
              "k_closedness": 0.5}
    change = _moved(parent, **{"residuals/cspace/max": 3e-12,
                               "residuals/E/max": 2e-9,
                               "invariants/F1/max": 2.5,
                               "k_closedness": 0.25})
    changed, moved = compare.report_changes(parent, change)
    assert changed == []
    moved = {m["path"]: m for m in moved}
    assert moved["residuals.cspace.max"]["scaled"] == pytest.approx(5e-16)
    # no sibling scale, a zero one, or no maximum: no scaled move
    for path in ("residuals.E.max", "invariants.F1.max", "k_closedness"):
        assert "scaled" not in moved[path]
    text = compare.format_listing([{
        "input": "i", "command": "classify", "differ": ["json"],
        "exit": {"parent": 0, "change": 0},
        "moved": [moved["residuals.cspace.max"], moved["k_closedness"]]}])
    assert text[1:] == [
        "  residuals.cspace.max: 1e-12 -> 3e-12 (abs 2e-12, rel 2e-12, "
        "scaled 5e-16)",
        "  k_closedness: 0.5 -> 0.25 (abs 0.25, rel 0.25)"]


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
