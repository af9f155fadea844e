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

Every command that samples walks its points in chunks
(`CurvaturePack.chunks`: 64 points at n = 6, 160 at n = 5, 512 at n = 4):
each chunk is sampled, reduced to per-point figures and freed before the
next, and the report is made on the joined figures, so peak memory stays
flat in --points.  `classify` keeps genericity classes, Weyl and Cotton
maxima, policy-gate notes, residual maxima and scales, the closedness of
K and tractor ranks, and its potential samples the quadrature nodes by
the same rule (`obstructions.reconstruct_potential`); `identities` keeps
residuals and scales (`curvature.identity_suite`); `invariants` the
maxima and scales of each invariant and cross-check, the closedness of K
and the values its covariance fit reads; `tractor` the maxima of its
residuals and scales.  An error raised while sampling or measuring names
the first failing point of the first chunk that fails."""

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
from .curvature import CurvaturePack, identity_suite, scalar_jet
from .evaluate import DomainError, UnboundSymbolError
from .expressions import ExprSyntaxError, parse
from .genericity import PolicyError, weyl_operators
from .geometry import SingularMetricError, conformal_rescale
from .mspecfile import MetricSpecError, dumps_mspec, entry_to_mspec, loads_mspec
from .obstructions import (
    THEOREM_IDS,
    Residual,
    _candidates,
    covariance_exponent,
    bach_residual,
    cspace_residual,
    decide_tensor_verdict,
    dim4_invariant,
    e_cross_check,
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

# each invariant's builder on (samples, K, tolerances): its Residual, for
# the report and, on g and the rescaled metric, for the covariance fit of
# _FITTED; the report cross-checks G and Gbar on g (`e_cross_check`)
_BUILDERS = {
    "F1": lambda s, k, tol: f1(s),
    "F2": lambda s, k, tol: f2(s),
    "E": lambda s, k, tol: e_tensor(s, k),
    "G": lambda s, k, tol: g_tensor(s, tol),
    "Gbar": lambda s, k, tol: gbar_tensor(s, tol),
    "dim4": lambda s, k, tol: dim4_invariant(s),
    "cspace": lambda s, k, tol: cspace_residual(s, k),
    "bach": lambda s, k, tol: bach_residual(s, k),
}
_DIM4PLUS_NAMES = ("F1", "F2", "G", "Gbar")
_FITTED = ("F1", "G", "Gbar", "dim4")


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
            # a KeyError's str is the repr of its message; a subclass
            # (UnboundSymbolError) keeps its own str
            msg = exc.args[0] if type(exc) is KeyError and exc.args else exc
            raise InputError(str(msg)) from exc
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


def _file_flags(p):
    p.add_argument("file")
    _common_flags(p)


def _invariants_flags(p):
    p.add_argument("file")
    p.add_argument("--which", default="E,cspace,bach",
                   help="comma list from: " + ",".join(_BUILDERS))
    p.add_argument("--upsilon", default=None,
                   help="conformal factor for a covariance run (overrides "
                        "the file's `conformal` entry)")
    _common_flags(p)


def _tractor_flags(p):
    p.add_argument("file")
    p.add_argument("--sigma", default="1")
    _common_flags(p)


def _catalog_flags(p):
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out", default=None)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


@_reads_input
def _tolerances(args):
    tol = Tolerances(tol_rel=args.tol_rel, tol_abs=args.tol_abs,
                     rank_tol=args.rank_tol)
    if args.points < 1:
        raise InputError("need at least one sample point")
    return tol


@_reads_input
def _load(args):
    # one read: the digest names the very bytes that were parsed
    with open(args.file, "rb") as fh:
        data = fh.read()
    spec = loads_mspec(data.decode("utf-8"))
    digest = hashlib.sha256(data).hexdigest()
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
    (`CurvaturePack.chunks`).

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
    ranks = []

    def measure_ranks(samples, measured):
        if g.dim >= 4:
            ranks.extend(rank_obstruction(
                samples, tol, genericity=measured.genericity).ranks)

    measured = measure_tensor_verdict(pack.chunks(points), args.policy, tol,
                                      each=measure_ranks)
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
    """The named invariants and, given a factor upsilon, their covariance
    fit, one chunk at a time.  A chunk keeps each invariant's and
    cross-check's per-point maxima and scales, the closedness of K and, for
    the fit, upsilon and the _FITTED values on g and e^{2 upsilon} g.

    K is built as `classify` builds it (`measure_tensor_verdict`): with
    the first candidate policy that every chunk passes.  When a later chunk
    fails the policy in use, the earlier chunks are measured again with the
    next one.  When every candidate fails, the first failure is raised."""
    tol = _tolerances(args)
    spec, g, points, digest = _load(args)
    which = list(dict.fromkeys(w.strip() for w in args.which.split(",")
                               if w.strip()))
    if not which:
        raise InputError("--which names no invariant; expected some of "
                         f"{', '.join(_BUILDERS)}")
    bad = [w for w in which if w not in _BUILDERS]
    if bad:
        raise MetricSpecError(f"unknown invariant name(s): {', '.join(bad)}; "
                              f"expected {', '.join(_BUILDERS)}")
    bad = [w for w in which if w in _DIM4PLUS_NAMES] if g.dim < 4 else []
    bad += ["dim4"] if "dim4" in which and g.dim != 4 else []
    if bad:
        raise MetricSpecError(f"invariant(s) {', '.join(bad)} not defined in "
                              f"dimension {g.dim} (F1, F2, G and Gbar need "
                              "n >= 4, dim4 needs n = 4)")
    ups = _parse(args.upsilon) if args.upsilon else spec.conformal
    hpack = None if ups is None else CurvaturePack(conformal_rescale(g, ups))
    needs_k = bool({"cspace", "bach", "E"} & set(which))
    # no policy applies in dimension 3, where the Weyl tensor vanishes:
    # the one asked for, or from-L, names that failure
    cands = _candidates(args.policy, g.dim) or (
        "from-L" if args.policy == "auto" else args.policy,)
    figures, closed, fits, uvals, errors = {}, [], {}, [], {}

    def measure(s, k):
        # one chunk's figures, with K built on it (None if none is needed)
        if k is not None:
            closed.append(k.closedness())
        values = {}
        for name in which:
            r = _BUILDERS[name](s, k, tol)
            figures.setdefault(name, []).append(r.reduced())
            if name in ("G", "Gbar"):
                figures.setdefault(f"{name}_cross_check_rel", []).append(
                    e_cross_check(s, r, tol).reduced())
            if hpack is not None and name in _FITTED:
                values[name] = r.values
        if hpack is None:
            return
        hs = hpack.samples(s.points)
        uvals.append(scalar_jet(s, ups, 0)[:, 0])
        for name in (w for w in which if w in _FITTED and w not in errors):
            try:
                hat = _BUILDERS[name](hs, None, tol).values
            except (PolicyError, ValueError) as exc:
                errors[name] = str(exc)
            else:
                fits.setdefault(name, []).append((values[name], hat))
        fits.setdefault("weyl_operator_det", []).append(
            (weyl_operators(s).dets[:, None], weyl_operators(hs).dets[:, None]))

    chunks, cur, failure, i = CurvaturePack(g).chunks(points), 0, None, 0
    while i < len(chunks):
        s, k = chunks[i](), None
        while needs_k and k is None:
            try:
                k = k_field(s, cands[cur], tol)
            except PolicyError as exc:
                failure, cur = failure or exc, cur + 1
                if cur == len(cands):
                    raise failure from None
                if i:  # a later chunk: the earlier ones are measured again
                    break
        if needs_k and k is None:
            for acc in (figures, closed, fits, uvals, errors):
                acc.clear()
            i = 0
        else:
            measure(s, k)
            i += 1
        del s, k  # the chunk is freed before the next one is sampled

    out = _report_skeleton(digest, tol, args)
    out["points"] = points
    if needs_k:
        out["k_provenance"] = cands[cur]
        out["k_closedness"] = float(np.max(np.concatenate(closed)))
    res = {}
    for name, parts in figures.items():
        r = Residual.joined(parts)
        res[name] = ({"max": r.max, "scale": r.max_scale} if name in _BUILDERS
                     else r.max / max(r.max_scale, 1e-300))
    out["invariants"] = res
    if hpack is not None:
        sec = {name: {"error": msg} for name, msg in errors.items()}
        for name, pairs in fits.items():
            if name not in errors:
                w, spread = covariance_exponent(
                    *(np.concatenate(v) for v in zip(*pairs)),
                    np.concatenate(uvals))
                sec[name] = {"fitted_exponent": w, "spread": spread}
        sec["weyl_operator_det"]["expected"] = float(-g.dim * (g.dim - 1))
        out["covariance"] = sec
    _emit(out, args)
    return EXIT_YES


def cmd_identities(args):
    tol = _tolerances(args)
    spec, g, points, digest = _load(args)
    rep = identity_suite(CurvaturePack(g), points, tol)
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
    reps = [parallel_tractor_check(sample(), sigma, tol)
            for sample in CurvaturePack(g).chunks(points)]
    out = _report_skeleton(digest, tol, args)
    out["points"] = points
    out["sigma"] = args.sigma
    out["einstein_scale"] = all(r["is_einstein_scale"] for r in reps)
    out["theorem"] = THEOREM_IDS["scale"]
    for key in ("parallel_residual", "scale", "rescaled_trace_free_schouten"):
        out[key] = float(np.max([r[key] for r in reps]))
    _emit(out, args)
    return EXIT_YES if out["einstein_scale"] else EXIT_NO


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


# each command's help line, the function that adds its arguments and its
# handler
_COMMANDS = {
    "classify": ("full conformally-Einstein decision", _file_flags,
                 cmd_classify),
    "invariants": ("evaluate named obstruction invariants", _invariants_flags,
                   cmd_invariants),
    "identities": ("curvature identity residual table", _file_flags,
                   cmd_identities),
    "tractor": ("parallel-tractor scale test", _tractor_flags, cmd_tractor),
    "catalog": ("list or export built-in metrics", _catalog_flags,
                cmd_catalog),
}


@functools.cache
def build_parser(command=None):
    """The argument parser of `command`, or of every command when it is
    None, built once per process.

    `main` builds only the parser of the command that argv names, since
    building a parser costs more than parsing a command line with it.
    That parser lists every command in its usage line (the subparsers'
    metavar), so its errors read as the full parser's.  The full parser,
    with no metavar, reads every other argv (no argument, -h, an unknown
    command, an option before the command), so its help and its "invalid
    choice" and "required" errors name every command."""
    ap = argparse.ArgumentParser(
        prog="confein",
        description="decide whether a coordinate metric is locally "
                    "conformally Einstein")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, add_flags, _) in _COMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=help_line))
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
