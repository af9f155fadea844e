"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, is_wrapper  # noqa: E402


def installed_wrappers():
    """(module or class, attribute) of every tracer wrapper reachable from a
    loaded confein module; empty when nothing is patched."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "confein" and not name.startswith("confein."):
            continue
        for key, val in vars(mod).items():
            if is_wrapper(val):
                found.append((name, key))
            elif isinstance(val, type) and val.__module__ == name:
                found.extend((f"{name}.{key}", k)
                             for k, v in vars(val).items() if is_wrapper(v))
    return found


def _fake_clock():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    return (lambda: now[0]), tick


def test_self_time_is_span_minus_covered_child_intervals():
    clock, tick = _fake_clock()
    tr = Tracer(clock=clock)
    leaf = tr.wrap("t.leaf", lambda: tick(1.0))

    def inner_body():
        tick(0.5)
        leaf()
        tick(0.25)

    inner = tr.wrap("t.inner", inner_body)

    def outer_body():
        tick(2.0)
        inner()
        tick(3.0)
        inner()
        tick(1.0)

    tr.wrap("t.outer", outer_body)()
    m = tr.metrics(names=("t.outer", "t.inner", "t.leaf"))
    assert m["t.outer_s"] == 9.5 and m["t.outer_self_s"] == 6.0
    assert m["t.inner_calls"] == 2
    assert m["t.inner_s"] == 3.5 and m["t.inner_self_s"] == 1.5
    assert m["t.leaf_s"] == 2.0 and m["t.leaf_self_s"] == 2.0
    # self times partition the root span
    assert sum(tr.self_times()) == m["t.outer_s"]


def test_self_time_counts_overlapping_children_once():
    tr = Tracer()
    tr.spans = [["p", 0.0, 10.0, -1], ["c", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0],
                ["c", 9.0, 12.0, 0]]
    # children cover [1, 6] and [9, 10] of the parent
    assert tr.self_times()[0] == 10.0 - 5.0 - 1.0


def test_nested_span_of_same_name_is_counted_once():
    clock, tick = _fake_clock()
    tr = Tracer(clock=clock)
    inner = tr.wrap("lin", lambda: tick(1.0))

    def outer_body():
        tick(1.0)
        inner()
        inner()

    tr.wrap("lin", outer_body)()
    m = tr.metrics(names=("lin",))
    assert (m["lin.calls"], m["lin.s"], m["lin.self_s"]) == (1, 3.0, 3.0)


def _bindings():
    """Every (owner, attribute, original) a full install must patch."""
    import confein.cli  # noqa: F401

    mods = [m for n, m in sys.modules.items()
            if n == "confein" or n.startswith("confein.")]
    out = []
    for _, modname, path, _ in TARGETS:
        owner = sys.modules[modname]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = vars(owner)[attr]
        out.append((owner, attr, original))
        if not classes:
            out.extend((m, k, v) for m in mods if m is not owner
                       for k, v in vars(m).items() if v is original)
    return out


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    bindings = _bindings()
    by_name = {(getattr(o, "__name__", ""), a) for o, a, _ in bindings}
    # imports by name are found, not just the defining module
    assert {("confein.cli", "rank_obstruction"),
            ("confein.tractor", "classify_genericity"),
            ("confein.obstructions", "classify_genericity"),
            ("confein.geometry", "compile_batch"),
            ("confein", "compile_batch")} <= by_name
    assert installed_wrappers() == []
    tr = Tracer()
    with tr.installed():
        assert all(is_wrapper(vars(o)[a]) for o, a, _ in bindings)
        assert len(installed_wrappers()) == len(bindings)
    assert all(vars(o)[a] is orig for o, a, orig in bindings)
    assert installed_wrappers() == []


def _small_inputs(tmp_path):
    from confein.catalog import get_entry
    from confein.mspecfile import dumps_mspec, entry_to_mspec

    path = tmp_path / "cc3.mspec"
    path.write_text(dumps_mspec(entry_to_mspec(
        get_entry("constant-curvature3"), n_points=3, seed=0)))
    return [workloads.Input("cc3", path, "conformally-einstein")]


def test_traced_pass_records_spans_and_restores(tmp_path):
    tr = Tracer()
    results, _, _ = child.classify_inputs(_small_inputs(tmp_path), tmp_path,
                                          tr)
    assert [r["ok"] for r in results] == [True]
    m = tr.metrics()
    assert m["cli.classify_calls"] == 1
    assert m["curvature.samples_calls"] >= 1
    assert m["evaluate.tape_instrs"] > 0
    assert installed_wrappers() == []


def test_untraced_pass_installs_no_wrappers(tmp_path, monkeypatch):
    def refuse(*_a, **_k):
        raise AssertionError("an untraced pass touched the tracer")

    monkeypatch.setattr(tracer_mod.Tracer, "install", refuse)
    monkeypatch.setattr(tracer_mod.Tracer, "wrap", refuse)
    results, start, end = child.classify_inputs(_small_inputs(tmp_path),
                                                tmp_path)
    assert [r["ok"] for r in results] == [True] and end > start
    assert installed_wrappers() == []


def test_pinned_catalog_verdicts_follow_recorded_truth():
    from confein.catalog import entry_names, get_entry

    assert sorted(workloads.CATALOG_VERDICTS) == entry_names()
    for name, pinned in workloads.CATALOG_VERDICTS.items():
        entry = get_entry(name)
        if entry.dim >= 4 and not entry.expect("weakly_generic"):
            want = "inconclusive"
        elif entry.expect("conformally_einstein"):
            want = "conformally-einstein"
        else:
            want = "not"
        assert pinned == want, name


@pytest.mark.parametrize("second, changed", [("aa", []), ("bb", ["x"])])
def test_digest_store_flags_a_changed_verdict_of_the_same_code(
        tmp_path, monkeypatch, second, changed):
    monkeypatch.setattr(run, "WORK", tmp_path)

    def passes(digest):
        return [{"results": [{"name": "x", "sha256": digest},
                             {"name": "y", "sha256": None}]}]

    assert run.check_digests("h1", "w", 0, passes("aa")) == []
    assert run.check_digests("h1", "w", 0, passes(second)) == changed
    # other code starts a fresh store and leaves the first one alone
    assert run.check_digests("h2", "w", 0, passes("cc")) == []
    assert run.check_digests("h1", "w", 0, passes("aa")) == []


def test_code_hash_follows_the_sources(tmp_path, monkeypatch):
    src, bench = tmp_path / "src" / "pkg", tmp_path / "bench"
    src.mkdir(parents=True)
    bench.mkdir()
    (src / "a.py").write_text("x = 1\n")
    (bench / "run.py").write_text("y = 1\n")
    (src / "notes.txt").write_text("not code\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "HERE", bench)
    first = run.code_hash()
    assert run.code_hash() == first
    (src / "notes.txt").write_text("still not code\n")
    assert run.code_hash() == first
    (src / "a.py").write_text("x = 2\n")
    second = run.code_hash()
    assert second != first
    (bench / "run.py").write_text("y = 2\n")
    assert run.code_hash() not in (first, second)


def test_reference_seconds_scales_each_stretch_by_its_probes():
    from speed import SpeedProbe

    ref = 1e-3
    p = SpeedProbe()
    # ten probes a second apart at reference speed, then ten at half speed
    p.samples = ([(float(t), ref) for t in range(10)]
                 + [(float(t), 2 * ref) for t in range(10, 20)])
    got = p.reference_seconds(0.0, 20.0, reference=ref)
    speeds = p._speeds()
    want, t = 0.0, 0.0
    for (s, d), speed in zip(p.samples, speeds):
        want += (s - t) * ref / speed
        t = s + d
    want += (20.0 - t) * ref / speeds[-1]
    assert abs(got - want) < 1e-12
    assert speeds[:8] == [ref] * 8 and speeds[-8:] == [2 * ref] * 8
    # a pass with no probe inside uses the last probe before it
    assert p.reference_seconds(19.5, 19.75, reference=ref) == 0.125


def test_one_slow_probe_does_not_rescale_its_stretch():
    from speed import SpeedProbe

    ref = 1e-3
    p = SpeedProbe()
    p.samples = [(float(t), ref) for t in range(10)]
    steady = p.reference_seconds(0.0, 10.0, reference=ref)
    p.samples[5] = (5.0, 40 * ref)          # one preempted probe
    # only the slow probe's own extra duration leaves the program time
    assert abs(p.reference_seconds(0.0, 10.0, reference=ref)
               - (steady - 39 * ref)) < 1e-12


def test_speed_probe_samples_and_restores_the_signal_handler():
    import signal
    import time

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.005) as p:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    assert len(p.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
