"""Compare the benchmark of two source checkouts in alternating pairs.

    python3 tools/compare.py --parent DIR --change DIR --workload W \
        [--seed S ...] [--pairs K] [--seconds T] [--out PATH]

Each pair runs `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, from that checkout's root, so each side
runs its own unchanged harness on its own sources.  The side that runs
first swaps from one pair to the next, so a drift of the machine's speed
falls on both sides alike.  Every run's final JSON line is kept.

For each seed the result is written under workloads["<W>-seed<S>"]:

- summary.{parent,change}.<metric>.{median,quartiles,runs}: per side, over
  the runs, the median and the inclusive quartiles of each end-to-end
  metric of the change's BENCHMARK.json;
- summary.wins.<metric>: the pairs in which the change's value is better
  (lower or higher, as BENCHMARK.json says), ties not counted;
- summary.pairs, summary.spread.<metric> (the parent's interquartile
  range) and summary.median_change_pct.<metric>;
- all_runs_correct, and runs: every run's pair, side and final JSON line.

With --out the result is merged into PATH's JSON object, beside the
workloads it already holds, so one file can collect several workloads;
without it, the object is printed.  `host` names the Python and numpy
versions, the number of CPUs and the environment variables that change
the figures: the thread pools' and PYTHONDONTWRITEBYTECODE, which makes
every process compile its imports and so adds to setup_s.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
HOST_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "PYTHONDONTWRITEBYTECODE")


def run_bench(root, workload, seed, seconds):
    """The final JSON line of one untraced bench/run.py run in `root`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with code "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    """[q1, median, q3], inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs, better):
    """The summary of a workload's runs ({"pair", "side", "result"}), over
    the metrics of `better` (name -> "lower" or "higher")."""
    value = {(r["pair"], r["side"], m): r["result"]["metrics"][m]["value"]
             for r in runs for m in better}
    pairs = sorted({r["pair"] for r in runs})
    out = {side: {} for side in SIDES}
    out.update(wins={}, pairs=len(pairs), spread={}, median_change_pct={})
    for m, direction in better.items():
        for side in SIDES:
            vals = [value[p, side, m] for p in pairs]
            q = quartiles(vals)
            out[side][m] = {"median": q[1], "quartiles": q, "runs": len(vals)}
        sign = 1 if direction == "lower" else -1
        out["wins"][m] = sum(
            sign * (value[p, "change", m] - value[p, "parent", m]) < 0
            for p in pairs)
        q = out["parent"][m]["quartiles"]
        out["spread"][m] = q[2] - q[0]
        base, new = out["parent"][m]["median"], out["change"][m]["median"]
        out["median_change_pct"][m] = (100.0 * (new - base) / base
                                       if base else 0.0)
    return out


def host():
    """One line naming what the figures depend on besides the code."""
    env = ", ".join(f"{var}={os.environ.get(var, '(unset)')}"
                    for var in HOST_VARS)
    return (f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
            f"{platform.python_version()}, numpy "
            f"{importlib.metadata.version('numpy')}; {env}; bench/run.py "
            "pins each pass's BLAS and OpenMP pools to 1 thread")


def compare(parent, change, workload, seed, pairs, seconds, log=sys.stderr):
    """One workload at one seed: the entry of workloads["<W>-seed<S>"]."""
    spec = json.loads((change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    roots = {"parent": parent, "change": change}
    runs = []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_bench(roots[side], workload, seed, seconds)
            runs.append({"pair": pair, "side": side, "result": result})
            figures = ", ".join(f"{m} {result['metrics'][m]['value']:.6g}"
                                for m in better)
            print(f"{workload} seed {seed} pair {pair} {side}: {figures}",
                  file=log, flush=True)
    return {"summary": summarize(runs, better),
            "all_runs_correct": all(r["result"]["correct"] for r in runs),
            "runs": runs}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, action="append",
                    help="sample-point seed, repeatable (default 0)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="bench/run.py --seconds of each run (default 20)")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    doc = {}
    if args.out is not None and args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["what"] = (
        "Final JSON lines of `python3 bench/run.py --workload W --seed S "
        "--seconds T --trace 0`, run in the parent's and the change's "
        "checkout in alternating pairs (tools/compare.py); per side the "
        "median and inclusive quartiles of each end-to-end metric, the "
        "pairs won by the change, the parent's interquartile spread and "
        "the median change in percent.")
    doc["host"] = host()
    workloads = doc.setdefault("workloads", {})
    for seed in args.seed or [0]:
        entry = compare(args.parent.resolve(), args.change.resolve(),
                        args.workload, seed, args.pairs, args.seconds)
        entry["seconds"] = args.seconds
        workloads[f"{args.workload}-seed{seed}"] = entry
        if args.out is not None:
            tmp = args.out.with_suffix(".tmp")
            tmp.write_text(json.dumps(doc, indent=1) + "\n")
            tmp.replace(args.out)
    if args.out is None:
        print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
