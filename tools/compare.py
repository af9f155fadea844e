"""Compare the benchmark, or the decisions, of two source checkouts.

    python3 tools/compare.py --parent DIR --change DIR --workload W ... \
        [--seed S ...] [--pairs K] [--trace K] [--seconds T] [--out PATH]
    python3 tools/compare.py --parent DIR --change DIR --decisions \
        [--workload W ...] [--seed S ...] [--input FILE ...] [--out PATH]

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

--trace K adds K alternating pairs of traced passes (`bench/run.py
--trace 1`), since one traced pass is not corrected for the machine's
speed: traced.{parent,change}.<layer>.{median,quartiles,runs} over every
per-layer metric of the passes, with traced.wins, spread and
median_change_pct as above, and traced_runs.  --pairs 0 runs the traced
passes alone.

--decisions runs no benchmark.  Per side, each checkout's own
bench/workloads.py writes each workload's inputs at each seed into a
directory of its own, <side>/<W>-seed<S>/ (`catalog` and `points` both
write rt6-quartic.mspec), and each --input FILE is copied into
<side>/inputs/.  Every command that samples the metric is then run on
every input, `python -m confein.cli COMMAND NAME.mspec ARGS --json
NAME.COMMAND.json` from the input's directory with that side's sources
(`COMMANDS`): classify, invariants with every invariant of the input's
dimension, identities, and tractor with sigma = 1.  Every run whose
input bytes, report bytes, stdout, stderr or exit code differ is listed
with its changed decision fields (every leaf of the report that is not a
float and differs, or is on one side only) and each moved float, with
its absolute move and its move relative to max(1, |parent value|).  The
exit code is 1 when any run differs, else 0.

With --out the result is merged into PATH's JSON object, beside the
workloads it already holds and into the entry of the same workload and
seed, so one file can collect several workloads, and the untraced and
traced pairs of one workload can come from separate runs; without it,
the object is printed.  `host` names the Python and numpy
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
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HOST_VARS = THREAD_VARS + ("PYTHONDONTWRITEBYTECODE",)
# the parts of a command's run that must have the same bytes on both
# sides: its input, and its own outputs
RUN_PARTS = ("mspec", "exit", "stdout", "stderr", "json")


def invariants_of(n):
    """`--which` of every invariant defined in dimension n: F1, F2, G and
    Gbar need n >= 4, dim4 needs n = 4."""
    names = ["E", "cspace", "bach"]
    names += ["F1", "F2", "G", "Gbar"] if n >= 4 else []
    names += ["dim4"] if n == 4 else []
    return ",".join(names)


def dimension_of(mspec):
    """The `dim = N` of an .mspec file."""
    for line in mspec.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "dim":
            return int(value)
    raise ValueError(f"{mspec} names no dimension")


# each command that samples the metric, and its arguments after the input
# file given the input's dimension n
COMMANDS = {
    "classify": lambda n: [],
    "invariants": lambda n: ["--which", invariants_of(n)],
    "identities": lambda n: [],
    "tractor": lambda n: ["--sigma", "1"],
}


def run_bench(root, workload, seed, seconds, trace=0):
    """The final JSON line of one bench/run.py run in `root`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
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


def alternate(roots, pairs, run, shown, log, label):
    """`pairs` alternating pairs of run(root), logging the metrics named in
    `shown`; the records of summarize."""
    runs = []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run(roots[side])
            runs.append({"pair": pair, "side": side, "result": result})
            figures = ", ".join(f"{m} {result['metrics'][m]['value']:.6g}"
                                for m in shown)
            print(f"{label} pair {pair} {side}: {figures}", file=log,
                  flush=True)
    return runs


def compare(parent, change, workload, seed, pairs, seconds, trace=0,
            log=sys.stderr):
    """One workload at one seed: the entry of workloads["<W>-seed<S>"]."""
    spec = json.loads((change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    roots = {"parent": parent, "change": change}
    label = f"{workload} seed {seed}"
    entry = {}
    if pairs:
        runs = alternate(roots, pairs, lambda root: run_bench(
            root, workload, seed, seconds), better, log, label)
        entry = {"summary": summarize(runs, better),
                 "all_runs_correct": all(r["result"]["correct"]
                                         for r in runs),
                 "runs": runs}
    if trace:
        runs = alternate(roots, trace, lambda root: run_bench(
            root, workload, seed, seconds, trace=1), ["cli.classify_s"],
            log, f"{label} traced")
        layers = {m["name"]: m["better"] for m in spec["per_layer"]}
        layers = {name: layers.get(name, "lower")
                  for name in runs[0]["result"]["metrics"]}
        entry["traced"] = summarize(runs, layers)
        entry["traced_runs"] = runs
    return entry


# ---------------------------------------------------------------------------
# --decisions


def side_env(root, *dirs):
    """The environment of a process that runs `root`'s sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(root / d) for d in dirs)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def write_side_inputs(root, workloads, seeds, inputs, dest):
    """Write each workload's inputs at each seed into dest/<W>-seed<S>/
    with `root`'s own bench/workloads.py (every workload it names when
    `workloads` is empty), and copy the extra `inputs` into dest/inputs/."""
    script = (
        "import os, sys, workloads\n"
        "dest, seeds, names = sys.argv[1], sys.argv[2].split(','), "
        "sys.argv[3:]\n"
        "for w in names or workloads.WORKLOADS:\n"
        "    for s in seeds:\n"
        "        d = os.path.join(dest, f'{w}-seed{s}')\n"
        "        os.makedirs(d)\n"
        "        workloads.write_inputs(w, int(s), d)\n")
    subprocess.run([sys.executable, "-c", script, str(dest),
                    ",".join(map(str, seeds)), *workloads], cwd=root,
                   env=side_env(root, "src", "bench"),
                   stdin=subprocess.DEVNULL, check=True)
    if inputs:
        (dest / "inputs").mkdir(parents=True)
        for path in inputs:
            shutil.copyfile(path, dest / "inputs" / path.name)


def run_tree(root, dest, log=sys.stderr):
    """Run every command of `COMMANDS` on every input under `dest` with
    `root`'s sources, keeping each run's report, stdout, stderr and exit
    code beside the input, as NAME.COMMAND.{json,stdout,stderr,exit}."""
    for mspec in sorted(dest.rglob("*.mspec")):
        n = dimension_of(mspec)
        for command, args in COMMANDS.items():
            stem = mspec.with_name(f"{mspec.stem}.{command}")
            proc = subprocess.run(
                [sys.executable, "-m", "confein.cli", command, mspec.name,
                 *args(n), "--json", stem.name + ".json"],
                cwd=mspec.parent, env=side_env(root, "src"),
                stdin=subprocess.DEVNULL, capture_output=True)
            stem.with_name(stem.name + ".stdout").write_bytes(proc.stdout)
            stem.with_name(stem.name + ".stderr").write_bytes(proc.stderr)
            stem.with_name(stem.name + ".exit").write_text(
                f"{proc.returncode}\n")
            print(f"{stem.relative_to(dest.parent)}: exit "
                  f"{proc.returncode}", file=log, flush=True)


def leaves(x, path=""):
    """(path, value) of every leaf of a JSON value."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, x


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def report_changes(parent, change):
    """(changed, moved) between two reports: every differing leaf that is
    not a float, or that one side lacks, as {path, parent, change}; every
    float that moved, as {path, parent, change, abs, rel}, rel against
    max(1, |parent|)."""
    a, b = dict(leaves(parent)), dict(leaves(change))
    changed, moved = [], []
    for path in [*a, *(p for p in b if p not in a)]:
        v, w = a.get(path), b.get(path)
        if (path in a and path in b and type(v) is type(w)
                and (v == w or v != v and w != w)):
            continue  # equal, or both NaN
        row = {"path": path, "parent": v, "change": w}
        if (path in a and path in b and _is_number(v) and _is_number(w)
                and (isinstance(v, float) or isinstance(w, float))):
            row["abs"] = abs(w - v)
            row["rel"] = row["abs"] / max(1.0, abs(v))
            moved.append(row)
        else:
            changed.append(row)
    return changed, moved


def decision_diffs(parent_tree, change_tree):
    """Every run of the two trees whose parts differ, in input and then
    command order."""
    trees = {"parent": parent_tree, "change": change_tree}
    runs = sorted({p.relative_to(t).as_posix()[:-len(".exit")]
                   for t in trees.values() for p in t.rglob("*.exit")})
    listing = []
    for run in runs:
        name, command = run.rsplit(".", 1)
        paths = {part: f"{run}.{part}" for part in RUN_PARTS}
        paths["mspec"] = f"{name}.mspec"
        data = {side: {part: (t / path).read_bytes()
                       if (t / path).exists() else None
                       for part, path in paths.items()}
                for side, t in trees.items()}
        differ = [part for part in RUN_PARTS
                  if data["parent"][part] != data["change"][part]]
        if not differ:
            continue
        row = {"input": name, "command": command, "differ": differ,
               "exit": {side: d["exit"] and int(d["exit"])
                        for side, d in data.items()}}
        reports = [data[side]["json"] for side in SIDES]
        if "json" in differ and None not in reports:
            row["changed"], row["moved"] = report_changes(
                *(json.loads(r) for r in reports))
        listing.append(row)
    return listing


def format_listing(listing):
    """The listing as lines of text."""
    lines = []
    for row in listing:
        exits = row["exit"]
        lines.append(f"{row['input']} {row['command']}: "
                     f"{', '.join(row['differ'])} differ "
                     f"(exit {exits['parent']} -> {exits['change']})")
        for c in row.get("changed", ()):
            lines.append(f"  {c['path']}: {c['parent']!r} -> "
                         f"{c['change']!r}")
        for m in row.get("moved", ()):
            lines.append(f"  {m['path']}: {m['parent']!r} -> "
                         f"{m['change']!r} (abs {m['abs']:.3g}, rel "
                         f"{m['rel']:.3g})")
    return lines


def decisions(parent, change, workloads, seeds, inputs, log=sys.stderr):
    """The number of runs, and the listing of every run that differs."""
    roots = {"parent": parent, "change": change}
    work = Path(tempfile.mkdtemp(prefix="compare-decisions-"))
    try:
        for side, root in roots.items():
            write_side_inputs(root, workloads, seeds, inputs, work / side)
            run_tree(root, work / side, log)
        runs = sum(1 for _ in (work / "parent").rglob("*.exit"))
        return runs, decision_diffs(work / "parent", work / "change")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", action="append",
                    help="repeatable; --decisions defaults to every "
                    "workload of each side's bench/workloads.py")
    ap.add_argument("--seed", type=int, action="append",
                    help="sample-point seed, repeatable (default 0)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, metavar="K",
                    help="alternating pairs of traced passes (default 0)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="bench/run.py --seconds of each run (default 20)")
    ap.add_argument("--decisions", action="store_true",
                    help="compare the outputs of every command that "
                    "samples instead of timing")
    ap.add_argument("--input", type=Path, action="append", default=[],
                    help="with --decisions, one more .mspec file to "
                    "run, repeatable")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    seeds = args.seed or [0]

    if args.decisions:
        runs, listing = decisions(
            parent, change, args.workload or [], seeds,
            [p.resolve() for p in args.input])
        for line in format_listing(listing):
            print(line)
        print(f"{len(listing)} of {runs} runs differ")
        if args.out is not None:
            args.out.write_text(json.dumps(
                {"runs": runs, "differ": listing}, indent=1) + "\n")
        return 1 if listing else 0

    if not args.workload:
        ap.error("--workload is required without --decisions")
    if args.pairs < 0 or args.trace < 0 or args.pairs + args.trace < 1:
        ap.error("--pairs and --trace must not be negative, and one of "
                 "them at least 1")
    doc = {}
    if args.out is not None and args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["what"] = (
        "Final JSON lines of `python3 bench/run.py --workload W --seed S "
        "--seconds T --trace 0`, run in the parent's and the change's "
        "checkout in alternating pairs (tools/compare.py); per side the "
        "median and inclusive quartiles of each end-to-end metric, the "
        "pairs won by the change, the parent's interquartile spread and "
        "the median change in percent; `traced`, where present, is the "
        "same over the per-layer metrics of alternating `--trace 1` "
        "passes.")
    doc["host"] = host()
    workloads = doc.setdefault("workloads", {})
    for workload in args.workload:
        for seed in seeds:
            entry = compare(parent, change, workload, seed, args.pairs,
                            args.seconds, args.trace)
            entry["seconds"] = args.seconds
            workloads.setdefault(f"{workload}-seed{seed}", {}).update(entry)
            if args.out is None:
                continue
            tmp = args.out.with_suffix(".tmp")
            tmp.write_text(json.dumps(doc, indent=1) + "\n")
            tmp.replace(args.out)
    if args.out is None:
        print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
