"""One pass of a workload in a fresh process.

    python3 bench/child.py --workload catalog --seed 0 --dir D --spawned-at T
        [--setup-only] [--trace]

Set-up builds the workload's metrics, draws its points and writes the
`.mspec` files into D.  The pass then calls
`confein.cli.main(["classify", <file>, "--json", <out>])` on each file in
turn and writes its record to D/result.json.  Set-up and an untraced pass
are timed under bench/speed.py's probe.  A fresh process per pass
matters: confein's expression intern table and derivative cache are
process-global, so a second pass in one process would run warm.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402

EXIT_CODES = {"conformally-einstein": 0, "not": 1, "inconclusive": 2}


def classify_inputs(inputs, outdir, tracer=None):
    """Classify each input in turn, untraced unless a tracer is given.

    Returns (per-input results, clock at the first call, clock at the last
    return).  An input passes when the call returns the exit code of its
    pinned verdict and the report names that verdict; a raise, exit 3, a
    `conflict` or another verdict fails it."""
    from confein.cli import main as confein_main

    results = []
    with tracer.installed() if tracer else nullcontext():
        run = tracer.wrap("cli.classify", confein_main) if tracer else confein_main
        start = time.perf_counter()
        for inp in inputs:
            out = Path(outdir) / f"{inp.name}.json"
            res = {"name": inp.name, "pinned": inp.pinned, "code": None,
                   "verdict": None, "sha256": None, "error": None}
            t0 = time.perf_counter()
            try:
                res["code"] = run(["classify", str(inp.path), "--json",
                                   str(out)])
            except Exception:  # a crash fails this input, the pass goes on
                res["error"] = traceback.format_exc()
                print(res["error"], file=sys.stderr)
            res["seconds"] = time.perf_counter() - t0
            if out.exists():
                data = out.read_bytes()
                res["sha256"] = hashlib.sha256(data).hexdigest()
                res["verdict"] = json.loads(data).get("verdict")
            res["ok"] = (res["code"] == EXIT_CODES[inp.pinned]
                         and res["verdict"] == inp.pinned)
            results.append(res)
        end = time.perf_counter()
    return results, start, end


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    # One probe covers set-up and an untraced pass; a traced pass runs
    # without it, so its spans hold no probe time.
    with SpeedProbe() as probe:
        probe.sample()
        begin, begin_mono = time.perf_counter(), time.monotonic()
        import confein.cli  # noqa: F401  (the import is part of set-up)

        inputs = workloads.write_inputs(args.workload, args.seed, args.dir)
        ready = time.perf_counter()
        if not (args.setup_only or args.trace):
            results, start, end = classify_inputs(inputs, args.dir)
    # CLOCK_MONOTONIC is system-wide on Linux, so the first term is the
    # interpreter's start, before any probe could run.
    record = {"setup_s": begin_mono - args.spawned_at
              + probe.reference_seconds(begin, ready)}
    if args.trace:
        tracer = Tracer()
        results, start, end = classify_inputs(inputs, args.dir, tracer)
        from confein import expressions
        record["layers"] = tracer.metrics()
        record["layers"]["expressions.interned_nodes"] = len(
            expressions._table)
        record["layers"]["trace.overhead_s"] = tracer.overhead_s()
    elif not args.setup_only:
        record["classify_s"] = probe.reference_seconds(start, end)
    if not args.setup_only:
        record["results"] = results
        record["classify_wall_s"] = end - start
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.dir / "result.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
