"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Tolerances are pinned here, not configurable."""

import json
import time

import numpy as np
import pytest

from confein import catalog
from confein import genericity as GN
from confein import obstructions as OB
from confein import tractor as TR
from confein.cli import main as cli_main
from confein.curvature import (
    CurvaturePack,
    identity_residuals,
    trace_free_residual,
    unpack_pairs,
    _contract_slot,
)
from confein.expressions import ONE, diff, parse
from confein.geometry import (
    DOWN,
    TensorField,
    conformal_rescale,
    evaluate_components,
    sample_points,
)
from conftest import (
    entry,
    kernel_contains,
    k_field_from_tensor,
    maxabs,
    pack,
    perturbed_flat_metric,
    points,
    samples,
)

_RESULTS = []


def report(num, description, ok):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}"
    print(line)
    _RESULTS.append((num, ok))
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def summary():
    yield
    print("\n--- acceptance summary ---")
    for num, ok in sorted(set(_RESULTS)):
        print(f"  criterion {num:02d}: {'PASS' if ok else 'FAIL'}")


IDENTITY_METRICS = ("flat4", "constant-curvature3", "constant-curvature4",
                    "schwarzschild4", "rt5-quartic", "pp-wave4",
                    "hyperkahler4")


def test_criterion_01_identity_suite():
    t0 = time.time()
    ok = True
    detail = []
    for name in IDENTITY_METRICS:
        s = samples(name, 10)
        res = identity_residuals(s)
        scale = s.scale()
        for ident in ("weyl-divergence", "schouten-divergence",
                      "cotton-divergence", "cotton-curl", "second-bianchi",
                      "weyl-trace", "cotton-trace", "bach-trace",
                      "bach-symmetry"):
            worst = float(np.max(res[ident] / (1e-8 * scale)))
            if worst >= 1.0:
                ok = False
                detail.append(f"{name}:{ident}={worst:.2e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(1, f"identity suite on {len(IDENTITY_METRICS)} metrics, "
              f"10 points each, residuals < 1e-8*scale "
              f"({elapsed:.0f}s < 300s){' ' + ';'.join(detail) if detail else ''}",
           ok)


def test_criterion_02_rt_scalar_curvature():
    worst = 0.0
    for name in ("rt4-quartic", "rt5-quartic", "rt6-quartic"):
        e = entry(name)
        s = pack(name).samples(points(name, 10))
        want = evaluate_components(e.extras["scalar_curvature_closed_form"],
                                   s.bindings)
        worst = max(worst, float(np.max(
            np.abs(s["scalar"] - want) / np.maximum(1e-300, np.abs(want)))))
    report(2, f"scalar curvature matches the closed form for n=4,5,6 "
              f"(worst rel {worst:.2e} < 1e-9)", worst < 1e-9)


def test_criterion_03_rt_weyl_coframe():
    from confein.geometry import coframe_components
    worst = 0.0
    for name, n in (("rt4-quartic", 4), ("rt5-quartic", 5)):
        e = entry(name)
        w = coframe_components(pack(name).weyl, e.extras["coframe"])
        pts = points(name, 5)
        b = [e.metric.point_bindings(q) for q in pts]
        psi = evaluate_components(e.extras["psi"], b)
        got1 = evaluate_components(w[0, 1, 0, 1], b)
        got2 = evaluate_components(w[1, 2, 0, 2], b)
        worst = max(worst,
                    float(np.max(np.abs(got1 / ((3 - n) * (n - 2) * psi) - 1))),
                    float(np.max(np.abs(got2 / ((3 - n) * psi) - 1))))
    report(3, f"null-coframe Weyl components match the closed forms "
              f"(worst rel {worst:.2e} < 1e-8)", worst < 1e-8)


def test_criterion_04_einstein_family():
    worst = 0.0
    for name in ("schwarzschild4", "schwarzschild-de-sitter4",
                 "schwarzschild5", "schwarzschild-de-sitter5"):
        s = pack(name).samples(points(name, 10))
        res, scale = trace_free_residual(s["P"], s["g"], s["ginv"])
        worst = max(worst, res / (1e-8 * scale))
    report(4, "the two-parameter profile family is Einstein for "
              f"(n, lam) in {{4,5}}x{{0,2}} (worst ratio {worst:.2e} < 1)",
           worst < 1.0)


def test_criterion_05_rt5_cspace_but_not_bach():
    e = entry("rt5-quartic")
    s = samples("rt5-quartic", 10)
    pot = e.extras["cspace_potential"]
    comps = np.asarray([diff(pot, c) for c in e.metric.chart.coords],
                       dtype=object)
    k_closed = k_field_from_tensor(
        TensorField(e.metric.chart, (DOWN,), comps), s)
    r_c = OB.cspace_residual(s, k_closed)
    k_formula = OB.k_field(s, "from-L")
    k_match = maxabs(k_formula.lowered - k_closed.lowered) / max(
        1.0, maxabs(k_closed.lowered))
    r_b = OB.bach_residual(s, k_formula)
    verdict = OB.conformal_einstein_tensor_verdict(
        pack("rt5-quartic").samples(points("rt5-quartic", 10)))
    ok = (r_c.max < 1e-8 * r_c.max_scale and k_match < 1e-7
          and r_b.max > 1e-3 * r_b.max_scale and verdict.outcome == "not")
    report(5, f"quartic profile: C-space residual {r_c.max:.2e} < "
              f"1e-8*{r_c.max_scale:.2e}, K agreement {k_match:.2e} < 1e-7, "
              f"Bach residual decisively fails, verdict '{verdict.outcome}'",
           ok)


def test_criterion_06_pp_wave_degenerate():
    rep = GN.classify_genericity(samples("pp-wave4", 10))
    er = np.zeros(4)
    er[1] = 1.0
    in_kernel = kernel_contains(rep, er, tol=1e-10)
    verdict = OB.conformal_einstein_tensor_verdict(
        pack("pp-wave4").samples(points("pp-wave4", 10)))
    rank = TR.rank_obstruction(
        pack("pp-wave4").samples(points("pp-wave4", 10)))
    ok = (not rep.weakly_generic and in_kernel
          and verdict.outcome == "inconclusive"
          and rank.verdict == "inconclusive")
    report(6, "plane-fronted wave: not weakly generic, the r-direction "
              "lies in the kernel, and both pipelines return inconclusive",
           ok)


def test_criterion_07_hyperkahler():
    s = samples("hyperkahler4", 5)
    ric = maxabs(s["ricci"]) / max(1.0, float(np.max(s.scale())))
    call = unpack_pairs(s.raised("C", (1, 1, 1, 1)))
    c2 = np.einsum("pabcd,pabcd->p", call, unpack_pairs(s["C"]))
    want = evaluate_components(entry("hyperkahler4").extras["weyl_norm_squared"],
                               s.bindings)
    rel = float(np.max(np.abs(c2 / want - 1)))
    pt = {"x1": 1.0, "y1": 0.5, "x2": 0.0, "y2": 0.0}
    s1 = pack("hyperkahler4").samples([pt])
    at2 = float(np.einsum("pabcd,pabcd->p",
                          unpack_pairs(s1.raised("C", (1, 1, 1, 1))),
                          unpack_pairs(s1["C"]))[0])
    rep = GN.classify_genericity(s)
    kdims = [pg.skew_kernel_dim for pg in rep.per_point]
    ok = (ric < 1e-8 and rel < 1e-8 and abs(at2 - 3.0) < 1e-8
          and rep.weakly_generic and all(k >= 3 for k in kdims))
    report(7, f"hyperkahler: Ricci {ric:.2e} < 1e-8, |C|^2 = 24/rho^3 "
              f"(rel {rel:.2e}; value {at2:.12f} at rho=2), weakly generic "
              f"with 2-form kernels {kdims}", ok)


def test_criterion_08_parallel_tractor():
    worst_res, worst_h = 0.0, 0.0
    for name in ("flat4", "constant-curvature3", "constant-curvature4",
                 "schwarzschild4", "schwarzschild5",
                 "schwarzschild-de-sitter5", "hyperkahler4"):
        rep = TR.parallel_tractor_check(pack(name).samples(points(name, 6)),
                                        ONE)
        worst_res = max(worst_res, rep["parallel_residual"])
        worst_h = max(worst_h, maxabs(rep["h_ii"] - rep["h_ii_expected"]))
    report(8, f"sigma = 1 is a parallel scale on every Einstein entry "
              f"(residual {worst_res:.2e} < 1e-9, h(I,I) error "
              f"{worst_h:.2e} < 1e-8)", worst_res < 1e-9 and worst_h < 1e-8)


def test_criterion_09_rank_obstruction():
    ok = True
    details = []
    for name, n in (("schwarzschild4", 4), ("schwarzschild-de-sitter5", 5)):
        rep = TR.rank_obstruction(pack(name).samples(points(name, 6)),
                                  sigma=ONE)
        good = (rep.verdict == "conformally-einstein"
                and rep.max_rank <= n + 1
                and rep.kernel_alignment is not None
                and rep.kernel_alignment > 1 - 1e-6)
        ok = ok and good
        details.append(f"{name}: rank {rep.max_rank} <= {n + 1}, alignment "
                       f"{rep.kernel_alignment:.12f}")
    rep = TR.rank_obstruction(
        pack("rt5-quartic").samples(points("rt5-quartic", 6)))
    ok = ok and rep.max_rank == 7 and rep.verdict == "not"
    details.append(f"rt5-quartic: rank {rep.max_rank} = n+2")
    report(9, "; ".join(details), ok)


def test_criterion_10_covariance_battery():
    ups_list = [parse("log(r)"), parse("3*x1/10")]
    e5 = entry("rt5-quartic")
    pts5 = points("rt5-quartic", 4)
    s5 = pack("rt5-quartic").samples(pts5)
    ok = True
    details = []
    for ups in ups_list:
        sh = CurvaturePack(conformal_rescale(e5.metric, ups)).samples(pts5)
        uvals = evaluate_components(ups, s5.bindings)
        scale = float(np.max(s5.scale()))
        # exact rules
        cmix = _contract_slot(unpack_pairs(s5["C"]), s5["ginv"], 2)
        cmixh = _contract_slot(unpack_pairs(sh["C"]), sh["ginv"], 2)
        d_weyl = maxabs(cmix - cmixh)
        uup = np.einsum("pab,pb->pa", s5["ginv"], np.stack(
            [evaluate_components(diff(ups, c), s5.bindings)
             for c in e5.metric.chart.coords], axis=1))
        d_cotton = maxabs(sh["A"] - s5["A"]
                          - np.einsum("pk,pkabc->pabc", uup,
                                      unpack_pairs(s5["C"])))
        e_g = OB.e_tensor(s5, OB.k_field(s5, "from-L"))
        e_h = OB.e_tensor(sh, OB.k_field(sh, "from-L"))
        d_e = maxabs(e_g.values - e_h.values)
        ok = ok and d_weyl < 1e-7 * scale and d_cotton < 1e-7 * scale \
            and d_e < 1e-7 * max(1.0, e_g.max_scale)
        # proportional invariants: exponents with tiny spread
        n = 5
        wG, sG = OB.covariance_exponent(
            OB.g_tensor(s5, cross_check=False)[0].values,
            OB.g_tensor(sh, cross_check=False)[0].values, uvals)
        wGb, sGb = OB.covariance_exponent(
            OB.gbar_tensor(s5, cross_check=False)[0].values,
            OB.gbar_tensor(sh, cross_check=False)[0].values, uvals)
        dets = GN.weyl_operators(s5)[1]
        detsh = GN.weyl_operators(sh)[1]
        wC, sC = OB.covariance_exponent(dets[:, None], detsh[:, None], uvals)
        ok = ok and sG < 1e-6 and sGb < 1e-6 and sC < 1e-6 \
            and abs(wC - (-n * (n - 1))) < 1e-6
        details.append(f"G:{wG:.6f} Gbar:{wGb:.6f} detC:{wC:.6f}")
    # F1 needs a metric that is not a conformal C-space; dim4 needs n=4
    gp = perturbed_flat_metric(seed=3)
    pts_p = sample_points(gp.chart, n=3, seed=5)
    sp = CurvaturePack(gp).samples(pts_p)
    upsp = parse("3*x1/10")
    shp = CurvaturePack(conformal_rescale(gp, upsp)).samples(pts_p)
    uvals = evaluate_components(upsp, sp.bindings)
    wF, sF = OB.covariance_exponent(OB.f1(sp).values, OB.f1(shp).values,
                                    uvals)
    ok = ok and sF < 1e-6 and abs(wF - (-12)) < 1e-6
    e4 = entry("rt4-quartic")
    pts4 = points("rt4-quartic", 4)
    s4 = pack("rt4-quartic").samples(pts4)
    sh4 = CurvaturePack(conformal_rescale(e4.metric,
                                          parse("3*u/10"))).samples(pts4)
    u4 = evaluate_components(parse("3*u/10"), s4.bindings)
    w4, spread4 = OB.covariance_exponent(
        OB.dim4_invariant(s4).values, OB.dim4_invariant(sh4).values, u4)
    ok = ok and spread4 < 1e-6 and abs(w4 - (-8)) < 1e-6
    report(10, "conformal covariance battery: exact rules for the Weyl, "
               "Cotton and E tensors; fitted exponents "
               f"[{'; '.join(details)}; F1:{wF:.6f}; dim4:{w4:.6f}] "
               "with spreads < 1e-6", ok)


def test_criterion_11_internal_cross_checks():
    s5 = samples("rt5-quartic", 6)
    dv = TR.div_omega_values(s5)
    dvc = TR.div_omega_closed(s5)
    d_div = maxabs(dv - dvc) / max(1.0, maxabs(dvc))
    _, cross_g = OB.g_tensor(s5)
    _, cross_gb = OB.gbar_tensor(s5)
    s4 = samples("rt4-quartic", 6)
    call = unpack_pairs(s4.raised("C", (1, 1, 1, 1)))
    c4 = unpack_pairs(s4["C"])
    c2 = np.einsum("pabcd,pabcd->p", call, c4)
    lhs = 4 * np.einsum("pabcd,pabce->pde", call, c4)
    d_4id = maxabs(lhs - c2[:, None, None] * np.eye(4)[None]) / \
        float(np.max(np.abs(c2)))
    ok = d_div < 1e-7 and cross_g < 1e-7 and cross_gb < 1e-7 and d_4id < 1e-9
    report(11, f"divergence-of-curvature closed form ({d_div:.2e}), "
               f"G = ||L||^2 E ({cross_g:.2e}), Gbar = (1-n)^2 ||C||^2 E "
               f"({cross_gb:.2e}), dimension-4 contraction identity "
               f"({d_4id:.2e})", ok)


def test_criterion_12_cli_determinism(tmp_path):
    f = tmp_path / "schw.mspec"
    assert cli_main(["catalog", "export", "schwarzschild4", "--points", "6",
                     "--seed", "7", "--out", str(f)]) == 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1 = cli_main(["classify", str(f), "--seed", "7", "--json", str(a)])
    code2 = cli_main(["classify", str(f), "--seed", "7", "--json", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(12, "two classify runs with --seed 7 on the exported fixture "
               f"produce byte-identical JSON (exit codes {code1}/{code2})",
           ok)
