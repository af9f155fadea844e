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
residuals and scales.  `classify` and `invariants` build K on the chunks
by one walk (`obstructions.policy_walk`); only they take --policy and
--rank-tol.  An error raised while sampling or measuring names the first
failing point of the first chunk that fails."""

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
from .config import DEFAULT_TOLERANCES, Tolerances
from .curvature import CurvaturePack, identity_suite, scalar_jet
from .evaluate import DomainError, UnboundSymbolError
from .expressions import ExprSyntaxError, parse
from .genericity import PolicyError, weyl_operators
from .geometry import SingularMetricError, conformal_rescale
from .mspecfile import MetricSpecError, dumps_mspec, entry_to_mspec, loads_mspec
from .obstructions import (
    INVARIANTS,
    POLICIES,
    THEOREM_IDS,
    Residual,
    covariance_exponent,
    decide_tensor_verdict,
    dimension_rules,
    e_cross_check,
    joined_outcome,
    measure_tensor_verdict,
    policy_walk,
)
# rank_obstruction is not called here; the benchmark's tests check that
# its tracer patches this binding too
from .tractor import (  # noqa: F401
    parallel_tractor_check, rank_obstruction, rank_rows, rank_verdict)

EXIT_YES, EXIT_NO, EXIT_INCONCLUSIVE, EXIT_INPUT = 0, 1, 2, 3
EXIT_INTERNAL = 4


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


# the flags of a command that samples; `decides` adds --rank-tol and
# --policy, which only the commands that choose K's policy and decide ranks
# read
def _common_flags(p, decides):
    tol = DEFAULT_TOLERANCES
    p.add_argument("--tol-rel", type=float, default=tol.tol_rel)
    p.add_argument("--tol-abs", type=float, default=tol.tol_abs)
    if decides:
        p.add_argument("--rank-tol", type=float, default=tol.rank_tol)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    if decides:
        p.add_argument("--policy", choices=POLICIES + ("auto",),
                       default="auto")
    p.add_argument("--json", dest="json_out", metavar="PATH",
                   help="write the JSON report to PATH instead of stdout")


def _file_flags(p, decides=True):
    p.add_argument("file")
    _common_flags(p, decides)


def _invariants_flags(p):
    p.add_argument("file")
    # by default, every invariant defined in every dimension
    p.add_argument("--which", default=",".join(
        w for w, inv in INVARIANTS.items() if inv.dims is None),
                   help="comma list from: " + ",".join(INVARIANTS))
    p.add_argument("--upsilon", default=None,
                   help="conformal factor for a covariance run (overrides "
                        "the file's `conformal` entry)")
    _common_flags(p, decides=True)


def _tractor_flags(p):
    p.add_argument("file")
    p.add_argument("--sigma", default="1")
    _common_flags(p, decides=False)


def _catalog_flags(p):
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out", default=None)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


@_reads_input
def _tolerances(args):
    # identities and tractor take no --rank-tol and report the default
    tol = Tolerances(args.tol_rel, args.tol_abs, getattr(
        args, "rank_tol", DEFAULT_TOLERANCES.rank_tol))
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
    """The full decision, one chunk of points at a time: the tensor
    verdict's per-point figures (`measure_tensor_verdict`, on
    `obstructions.policy_walk`) and the tractor ranks (`rank_rows`, on each
    chunk's first visit), decided on the joined figures
    (`decide_tensor_verdict`, `rank_verdict`)."""
    tol = _tolerances(args)
    spec, g, points, digest = _load(args)
    pack = CurvaturePack(g)
    ranks = []

    def measure_ranks(samples, measured):
        if g.dim >= 4:
            ranks.extend(rank_rows(samples, tol)[0])

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
    """The named invariants (`obstructions.INVARIANTS`) and, given a factor
    upsilon, their covariance fit, one chunk at a time.  A chunk keeps
    each invariant's and cross-check's per-point maxima and scales, the
    closedness of K and, for the fit, upsilon and the values on g and
    e^{2 upsilon} g of each invariant that does not read K.  K is built by
    classify's walk (`obstructions.policy_walk`); when every candidate
    fails, the first one's note is raised."""
    tol = _tolerances(args)
    spec, g, points, digest = _load(args)
    which = list(dict.fromkeys(w.strip() for w in args.which.split(",")
                               if w.strip()))
    if not which:
        raise InputError("--which names no invariant; expected some of "
                         f"{', '.join(INVARIANTS)}")
    bad = [w for w in which if w not in INVARIANTS]
    if bad:
        raise MetricSpecError(f"unknown invariant name(s): {', '.join(bad)}; "
                              f"expected {', '.join(INVARIANTS)}")
    rules = [inv.dims for inv in INVARIANTS.values()]
    bad = sorted((w for w in which if not INVARIANTS[w].defined(g.dim)),
                 key=lambda w: rules.index(INVARIANTS[w].dims))
    if bad:
        raise MetricSpecError(f"invariant(s) {', '.join(bad)} not defined in "
                              f"dimension {g.dim} ({dimension_rules()})")
    ups = _parse(args.upsilon) if args.upsilon else spec.conformal
    hpack = None if ups is None else CurvaturePack(conformal_rescale(g, ups))
    needs_k = any(INVARIANTS[w].reads_k for w in which)
    parts = {}  # chunk -> (figures, closedness of K, fits, upsilon, errors)

    def measure(i, s, k):
        figures, fits, errors, values = {}, {}, {}, {}
        closed = None if k is None else k.closedness()
        for name in which:
            r = INVARIANTS[name].build(s, k, tol)
            figures[name] = r.reduced()
            if INVARIANTS[name].policy is not None:
                figures[f"{name}_cross_check_rel"] = e_cross_check(
                    s, r, tol).reduced()
            if hpack is not None and not INVARIANTS[name].reads_k:
                values[name] = r.values
        uvals = None
        if hpack is not None:
            hs = hpack.samples(s.points)
            uvals = scalar_jet(s, ups, 0)[:, 0]
            failed = {name for j in range(i) for name in parts[j][4]}
            for name in (w for w in values if w not in failed):
                try:
                    hat = INVARIANTS[name].build(hs, None, tol).values
                except (PolicyError, ValueError) as exc:
                    errors[name] = str(exc)
                else:
                    fits[name] = (values[name], hat)
            fits["weyl_operator_det"] = (weyl_operators(s).dets[:, None],
                                         weyl_operators(hs).dets[:, None])
        parts[i] = (figures, closed, fits, uvals, errors)

    policy, _ = policy_walk(CurvaturePack(g).chunks(points),
                            args.policy if needs_k else None, tol, measure,
                            strict=True)
    figures, closed, fits, uvals, errors = zip(
        *(parts[i] for i in range(len(parts))))
    out = _report_skeleton(digest, tol, args)
    out["points"] = points
    if needs_k:
        out["k_provenance"] = policy
        out["k_closedness"] = float(np.max(np.concatenate(closed)))
    res = {}
    for name in figures[0]:
        r = Residual.joined([f[name] for f in figures])
        res[name] = ({"max": r.max, "scale": r.max_scale}
                     if name in INVARIANTS
                     else r.max / max(r.max_scale, 1e-300))
    out["invariants"] = res
    if hpack is not None:
        # a fit fails on one chunk at most: no later chunk tries it
        errors = {name: msg for e in errors for name, msg in e.items()}
        sec = {name: {"error": msg} for name, msg in errors.items()}
        for name in (w for w in fits[0] if w not in errors):
            w, spread = covariance_exponent(
                *(np.concatenate([f[name][j] for f in fits]) for j in (0, 1)),
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
    "identities": ("curvature identity residual table",
                   functools.partial(_file_flags, decides=False),
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
