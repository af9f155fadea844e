"""confein benchmark: classify a workload's metric files end to end.

    python3 bench/run.py --workload {catalog,dense4,points} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`.  Every pass of a workload is a fresh Python process (bench/child.py)
with one thread: BLAS/OpenMP pools are pinned to 1.  The load is a closed
loop, one classify call after another.

--trace 0 measures the end-to-end metrics untraced.  Set-up-only processes
run first, then whole passes: another pass starts only while it is expected
to end within S seconds of the first one's start, so a run measures for
about S seconds and holds at least one pass.  Each metric is the median
over the run's processes:

- classify_s: seconds from the first classify call to the last return;
- setup_s: seconds from spawning the process to its first classify call
  (interpreter start, `import confein`, building the metrics, drawing
  points, writing the files);
- peak_rss_mb: the pass process's ru_maxrss in MiB;
- passed_frac: classifications that gave their pinned verdict / attempted.

Both times are wall times corrected for the machine's momentary speed by
bench/speed.py; the raw wall time of the classify loop is printed as
classify_wall_s.

--trace 1 makes one traced pass and reports the per-layer metrics of
bench/tracer.py.  trace.overhead_s is the time the wrappers added, estimated
in the pass as (wrapped calls) x (measured cost of one wrapped call): the
difference of a traced and an untraced pass would be smaller than the
pass-to-pass noise, and a second pass would double the run.

Every verdict JSON's sha256 is kept under .bench_work/digests/, keyed by a
hash of the Python sources under src/ and bench/ (see code_hash), the
workload and the seed.  A digest that differs from an earlier run's of the
same code marks the run incorrect; a change to the code starts a fresh
store.  The last line of standard output is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SPAN_NAMES, metric_prefix  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_ONLY_RUNS = 4          # plus one set-up per pass
DEADLINE_S = 170.0           # the whole run, children included

END_TO_END_UNITS = {"classify_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "passed_frac": "ratio"}


def per_layer_units():
    units = {}
    for span in SPAN_NAMES:
        pre = metric_prefix(span)
        units.update({pre + "calls": "count", pre + "s": "s",
                      pre + "self_s": "s"})
    units.update({"evaluate.tape_instrs": "count",
                  "evaluate.max_slot_bytes": "B",
                  "expressions.interned_nodes": "count",
                  "trace.overhead_s": "s"})
    return units


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, tmp, deadline, setup_only=False, trace=False):
    workdir = Path(tempfile.mkdtemp(dir=tmp))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(workdir)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
    spawned = time.monotonic()
    timeout = deadline - spawned
    if timeout <= 0:
        raise BenchError(f"no time left for a pass within {DEADLINE_S:.0f} s")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                              env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {DEADLINE_S:.0f} s "
                         "of the run's start") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def code_hash():
    """sha256 over every Python source under src/ and bench/: the code that
    writes the inputs and gives the verdicts, committed or not."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def check_digests(code, workload, seed, passes):
    """Compare every verdict digest with the ones stored by earlier runs
    (and passes) of the same code, workload and seed; store new ones.
    Returns the names whose digest changed."""
    store = WORK / "digests" / code / f"{workload}-seed{seed}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    changed = []
    for rec in passes:
        for res in rec["results"]:
            digest = res["sha256"]
            if digest is None:
                continue
            if known.setdefault(res["name"], digest) != digest:
                changed.append(res["name"])
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return changed


def measure(args, tmp, deadline):
    """Run the processes of one benchmark run; returns (passes, metrics)."""
    if args.trace:
        traced = run_child(args, tmp, deadline, trace=True)
        return [traced], {k: (traced["layers"][k], u)
                          for k, u in per_layer_units().items()}

    setups = [run_child(args, tmp, deadline, setup_only=True)
              for _ in range(SETUP_ONLY_RUNS)]
    start = time.monotonic()
    passes = [run_child(args, tmp, deadline)]
    while True:
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        passes.append(run_child(args, tmp, deadline))
    n = sum(len(p["results"]) for p in passes)
    ok = sum(r["ok"] for p in passes for r in p["results"])
    values = {
        "classify_s": statistics.median(p["classify_s"] for p in passes),
        "setup_s": statistics.median(r["setup_s"] for r in setups + passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "passed_frac": ok / n,
    }
    return passes, {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="sample-point seed (default 0)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the finally below removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "confein" / "cli.py").is_file():
        print(f"error: no confein sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    code = code_hash()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        passes, metrics = measure(args, tmp, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    changed = check_digests(code, args.workload, args.seed, passes)
    results = [r for p in passes for r in p["results"]]
    for r in results:
        flag = "ok" if r["ok"] else "FAILED"
        if r["name"] in changed:
            flag += " DIGEST-CHANGED"
        print(f"{args.workload}/{r['name']}: {r['seconds']:.3f} s "
              f"verdict={r['verdict']} pinned={r['pinned']} exit={r['code']} "
              f"sha256={r['sha256']} {flag}")
    if not args.trace:
        wall = statistics.median(p["classify_wall_s"] for p in passes)
        print(f"classify_wall_s = {wall:.6g} s (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed = sum(not r["ok"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not changed,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
