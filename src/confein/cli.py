"""Batch front end: load metric files, run the pipelines, emit JSON.

Exit codes for `classify`: 0 = conformally Einstein, 1 = not, 2 =
inconclusive (or a verdict conflict, which is a bug signal), 3 = input
error, 4 = internal error.  An input error is a file that cannot be read
or written (any OSError), an option or expression that cannot be read, a
metric that cannot be sampled (no drawn point of its box is regular), or
a metric or factor that cannot be evaluated at the sample points (unbound
symbol, domain error or overflow, singular metric, failed left-inverse
policy); any other exception is an internal error, printed as
`internal error: ...`.
Reports are deterministic for a fixed --seed: two runs produce
byte-identical JSON.

`classify` walks its points in chunks (`curvature.point_chunks`: 64
points at n = 6, 160 at n = 5, 512 at n = 4): each chunk is sampled,
reduced to per-point figures (genericity classes, Weyl and Cotton maxima,
policy-gate notes, residual maxima and scales, the closedness of K,
tractor ranks) and freed before the next, and the verdicts are decided on
the joined figures.  The potential samples its quadrature nodes by the
same rule (`obstructions.reconstruct_potential`), so classify's peak
memory stays flat in --points.  The other commands work on the whole
batch."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import traceback

import numpy as np

from . import __version__
from .catalog import entry_names, get_entry
from .config import Tolerances
from .curvature import CurvaturePack, identity_suite, point_chunks
from .evaluate import DomainError, UnboundSymbolError
from .expressions import ExprSyntaxError, parse
from .genericity import PolicyError, weyl_operators
from .geometry import SingularMetricError
from .mspecfile import MetricSpecError, dumps_mspec, entry_to_mspec, load_mspec
from .obstructions import (
    THEOREM_IDS,
    covariance_exponent,
    bach_residual,
    cspace_residual,
    decide_tensor_verdict,
    dim4_invariant,
    e_tensor,
    f1,
    f2,
    g_tensor,
    gbar_tensor,
    joined_outcome,
    k_field,
    measure_tensor_verdict,
)
from .tractor import parallel_tractor_check, rank_obstruction, rank_verdict

EXIT_YES, EXIT_NO, EXIT_INCONCLUSIVE, EXIT_INPUT = 0, 1, 2, 3
EXIT_INTERNAL = 4

_INVARIANT_NAMES = ("F1", "F2", "E", "G", "Gbar", "dim4", "cspace", "bach")
_DIM4PLUS_NAMES = ("F1", "F2", "G", "Gbar")


class InputError(Exception):
    """A ValueError or KeyError raised while reading the input."""


# errors that name a fault of the input wherever they are raised
_INPUT_ERRORS = (InputError, MetricSpecError, ExprSyntaxError, OSError,
                 SingularMetricError, DomainError, PolicyError,
                 UnboundSymbolError)


def _reads_input(fn):
    """`fn` with its ValueError and KeyError reported as InputError."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, KeyError) as exc:
            raise InputError(str(exc)) from exc
    return wrapper


_parse = _reads_input(parse)


def _common_flags(p):
    p.add_argument("--tol-rel", type=float, default=1e-8)
    p.add_argument("--tol-abs", type=float, default=1e-12)
    p.add_argument("--rank-tol", type=float, default=1e-8)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=("from-L", "from-C", "dim4-C3", "auto"),
                   default="auto")
    p.add_argument("--json", dest="json_out", metavar="PATH",
                   help="write the JSON report to PATH instead of stdout")


@functools.cache
def build_parser():
    """The argument parser, built once per process: building it costs
    about twenty times what parsing one command line does."""
    ap = argparse.ArgumentParser(
        prog="confein",
        description="decide whether a coordinate metric is locally "
                    "conformally Einstein")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full conformally-Einstein decision")
    p.add_argument("file")
    _common_flags(p)

    p = sub.add_parser("invariants", help="evaluate named obstruction "
                                          "invariants")
    p.add_argument("file")
    p.add_argument("--which", default="E,cspace,bach",
                   help="comma list from: " + ",".join(_INVARIANT_NAMES))
    p.add_argument("--upsilon", default=None,
                   help="conformal factor for a covariance run (overrides "
                        "the file's `conformal` entry)")
    _common_flags(p)

    p = sub.add_parser("identities", help="curvature identity residual table")
    p.add_argument("file")
    _common_flags(p)

    p = sub.add_parser("tractor", help="parallel-tractor scale test")
    p.add_argument("file")
    p.add_argument("--sigma", default="1")
    _common_flags(p)

    p = sub.add_parser("catalog", help="list or export built-in metrics")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out", default=None)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    return ap


@_reads_input
def _tolerances(args):
    tol = Tolerances(tol_rel=args.tol_rel, tol_abs=args.tol_abs,
                     rank_tol=args.rank_tol)
    if args.points < 1:
        raise InputError("need at least one sample point")
    return tol


@_reads_input
def _load(args):
    spec = load_mspec(args.file)
    with open(args.file, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    g = spec.metric(name=args.file)
    points = spec.sample(n=args.points, seed=args.seed)
    return spec, g, points, digest


def _report_skeleton(digest, tol, args):
    return {
        "tool": "confein",
        "version": __version__,
        "input_digest": digest,
        "tolerances": {"tol_rel": tol.tol_rel, "tol_abs": tol.tol_abs,
                       "rank_tol": tol.rank_tol, "decisive": tol.decisive,
                       "points": args.points, "seed": args.seed},
    }


def _genericity_json(gen):
    if gen is None:
        return None
    return {
        "weakly_generic": gen.weakly_generic,
        "lambda2_generic": gen.lambda2_generic,
        "generic": gen.generic,
        "all_points_agree": gen.all_agree,
        "per_point": [
            {"weakly_generic": pg.weakly_generic,
             "lambda2_generic": pg.lambda2_generic,
             "generic": pg.generic,
             "weyl_operator_det": pg.weyl_det,
             "weak_kernel_dim": int(pg.weak_kernel.shape[1]),
             "skew_kernel_dim": pg.skew_kernel_dim,
             "sym_kernel_dim": pg.sym_kernel_dim,
             "dual_kernel_dim": pg.dual_kernel_dim,
             **({"c3": pg.c3, "c3_star": pg.c3_star}
                if pg.c3 is not None else {})}
            for pg in gen.per_point],
    }


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=True)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_classify(args):
    """The full decision, one chunk of points at a time
    (`curvature.point_chunks`).

    Each chunk is sampled once, measured and freed before the next: the
    tensor verdict keeps its genericity classes, the Weyl and Cotton
    maxima, the policy gates' notes, the per-point maxima and scales of
    the cspace, bach, E (F1, F2, dim4) residuals and the closedness of K
    (`measure_tensor_verdict`); the rank test keeps the ranks
    (`rank_obstruction` on the chunk).  The verdicts are decided on the
    joined figures (`decide_tensor_verdict`, `rank_verdict`), so peak
    memory does not grow with the number of points.  A policy that a
    later chunk fails sends the earlier chunks back to be sampled and
    measured with the next one."""
    tol = _tolerances(args)
    spec, g, points, digest = _load(args)
    pack = CurvaturePack(g)
    chunks = point_chunks(len(points), g.dim)
    ranks = []

    def measure_ranks(samples, measured):
        if g.dim >= 4:
            ranks.extend(rank_obstruction(
                samples, tol, genericity=measured.genericity).ranks)

    measured = measure_tensor_verdict(
        lambda i: pack.samples(points[chunks[i]]), len(chunks),
        args.policy, tol, each=measure_ranks)
    rep = decide_tensor_verdict(measured, pack, args.policy, tol)
    out = _report_skeleton(digest, tol, args)
    out["points"] = points
    out["genericity"] = _genericity_json(rep.genericity)
    out["residuals"] = rep.residual_table()
    out["verdicts"] = [
        {"theorem": v.theorem, "outcome": v.outcome,
         "precondition": v.precondition, "detail": v.detail}
        for v in rep.verdicts]
    out["k_provenance"] = rep.k_provenance
    out["k_closedness"] = rep.k_closedness
    if rep.potential is not None:
        out["potential"] = list(rep.potential)
    out["notes"] = rep.notes

    if g.dim >= 4:
        rank = rank_verdict(ranks, g.dim, rep.genericity.weakly_generic)
        out["rank_test"] = {
            "theorem": THEOREM_IDS["rank"],
            "ranks": rank.ranks,
            "threshold": g.dim + 1,
            "outcome": rank.verdict,
            "notes": rank.notes,
        }
        out["verdict"] = joined_outcome((rep.outcome, rank.verdict))
        if out["verdict"] == "conflict" and rep.outcome != "conflict":
            out["notes"].append(
                "internal-consistency error: the tensor and tractor-rank "
                "pipelines disagree")
    else:
        out["verdict"] = rep.outcome
    _emit(out, args)
    return {"conformally-einstein": EXIT_YES, "not": EXIT_NO}.get(
        out["verdict"], EXIT_INCONCLUSIVE)


def cmd_invariants(args):
    tol = _tolerances(args)
    spec, g, points, digest = _load(args)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    bad = [w for w in which if w not in _INVARIANT_NAMES]
    if bad:
        raise MetricSpecError(f"unknown invariant name(s): {', '.join(bad)}; "
                              f"expected {', '.join(_INVARIANT_NAMES)}")
    bad = [w for w in which if w in _DIM4PLUS_NAMES] if g.dim < 4 else []
    bad += ["dim4"] if "dim4" in which and g.dim != 4 else []
    if bad:
        raise MetricSpecError(f"invariant(s) {', '.join(bad)} not defined in "
                              f"dimension {g.dim} (F1, F2, G and Gbar need "
                              "n >= 4, dim4 needs n = 4)")
    pack = CurvaturePack(g)
    samples = pack.samples(points)
    out = _report_skeleton(digest, tol, args)
    out["points"] = points
    res = {}
    policy = "from-L" if args.policy == "auto" else args.policy
    k = None
    if {"cspace", "bach", "E"} & set(which):
        k = k_field(samples, policy, tol)
        out["k_provenance"] = policy
        out["k_closedness"] = float(np.max(k.closedness()))
    for name in which:
        if name == "cspace":
            r = cspace_residual(samples, k)
        elif name == "bach":
            r = bach_residual(samples, k)
        elif name == "E":
            r = e_tensor(samples, k)
        elif name == "F1":
            r = f1(samples)
        elif name == "F2":
            r = f2(samples)
        elif name == "G":
            r, cross = g_tensor(samples, tol)
            res["G_cross_check_rel"] = cross
        elif name == "Gbar":
            r, cross = gbar_tensor(samples, tol)
            res["Gbar_cross_check_rel"] = cross
        else:
            r = dim4_invariant(samples)
        res[name] = {"max": r.max, "scale": r.max_scale}
    out["invariants"] = res

    ups = None
    if args.upsilon:
        ups = _parse(args.upsilon)
    elif spec.conformal is not None:
        ups = spec.conformal
    if ups is not None:
        out["covariance"] = _covariance_section(pack, samples, points, which,
                                                ups, tol)
    _emit(out, args)
    return EXIT_YES


def _covariance_section(pack, samples, points, which, ups, tol):
    from .geometry import conformal_rescale, evaluate_components
    ghat = conformal_rescale(pack.g, ups)
    hpack = CurvaturePack(ghat)
    hsamples = hpack.samples(points)
    uvals = evaluate_components(ups, samples.bindings)
    sec = {}
    builders = {
        "F1": lambda s: f1(s).values,
        "G": lambda s: g_tensor(s, tol, cross_check=False)[0].values,
        "Gbar": lambda s: gbar_tensor(s, tol, cross_check=False)[0].values,
        "dim4": lambda s: dim4_invariant(s).values,
    }
    for name in which:
        if name not in builders:
            continue
        try:
            w, spread = covariance_exponent(builders[name](samples),
                                            builders[name](hsamples), uvals)
            sec[name] = {"fitted_exponent": w, "spread": spread}
        except (PolicyError, ValueError) as exc:
            sec[name] = {"error": str(exc)}
    dets, detsh = weyl_operators(samples)[1], weyl_operators(hsamples)[1]
    w, spread = covariance_exponent(dets[:, None], detsh[:, None], uvals)
    n = samples.n
    sec["weyl_operator_det"] = {"fitted_exponent": w, "spread": spread,
                                "expected": float(-n * (n - 1))}
    return sec


def cmd_identities(args):
    tol = _tolerances(args)
    spec, g, points, digest = _load(args)
    rep = identity_suite(CurvaturePack(g).samples(points), tol)
    out = _report_skeleton(digest, tol, args)
    out["points"] = points
    out["identities"] = {
        name: {"max": mx, "scale": sc, "pass": ok}
        for name, (mx, sc, ok) in rep.items()}
    _emit(out, args)
    return EXIT_YES if all(v[2] for v in rep.values()) else EXIT_NO


def cmd_tractor(args):
    tol = _tolerances(args)
    spec, g, points, digest = _load(args)
    sigma = _parse(args.sigma)
    rep = parallel_tractor_check(CurvaturePack(g).samples(points), sigma,
                                 tol)
    out = _report_skeleton(digest, tol, args)
    out["points"] = points
    out["sigma"] = args.sigma
    out["einstein_scale"] = rep["is_einstein_scale"]
    out["theorem"] = THEOREM_IDS["scale"]
    out["parallel_residual"] = rep["parallel_residual"]
    out["scale"] = rep["scale"]
    out["rescaled_trace_free_schouten"] = rep["rescaled_trace_free_schouten"]
    _emit(out, args)
    return EXIT_YES if rep["is_einstein_scale"] else EXIT_NO


@_reads_input
def cmd_catalog(args):
    if args.action == "list":
        for name in entry_names():
            print(name)
        return EXIT_YES
    if not args.name:
        print("catalog export needs a name", file=sys.stderr)
        return EXIT_INPUT
    if args.points < 1:
        raise InputError("need at least one sample point")
    text = dumps_mspec(entry_to_mspec(get_entry(args.name),
                                      n_points=args.points, seed=args.seed))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"classify": cmd_classify, "invariants": cmd_invariants,
                "identities": cmd_identities, "tractor": cmd_tractor,
                "catalog": cmd_catalog}
    try:
        return handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
