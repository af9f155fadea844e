import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from confein import cli, curvature, geometry, obstructions
from confein.obstructions import Verdict
from confein.catalog import get_entry
from confein.cli import main
from confein.config import Tolerances
from confein.expressions import parse
from confein.genericity import Operators, weyl_operators
from confein.mspecfile import (
    MetricSpecError,
    dumps_mspec,
    entry_to_mspec,
    loads_mspec,
)

GOOD = """\
# a null-block metric with one parameter
dim = 4
coords = u, r, x1, x2
param m = 1
g[0][0] = 2*(-1/2 + m/r)
g[0][1] = 1
g[2][2] = r^2/(1 + (x1^2 + x2^2)/4)^2
g[3][3] = r^2/(1 + (x1^2 + x2^2)/4)^2
singular = r
box r = 1.5, 3.0
box u = 0.0, 1.0
box x1 = -0.5, 0.5
box x2 = -0.5, 0.5
"""

# g[0][0] is undefined for x <= 0, a quarter of the box
LOG_X = """\
dim = 3
coords = x, y, z
g[0][0] = 2 + log(x)
g[1][1] = 1
g[2][2] = 1
box x = -1.0, 3.0
"""

# diag(x, 1, 1) at three pinned points of one signature, degenerate at x = 0
DEGENERATE_X = """\
dim = 3
coords = x, y, z
g[0][0] = x
g[1][1] = 1
g[2][2] = 1
point = 1, 0, 0
point = 2, 0, 0
point = 0, 0, 0
"""


class TestFormat:
    def test_round_trip(self):
        spec = loads_mspec(GOOD)
        again = loads_mspec(dumps_mspec(spec))
        assert again.dim == 4
        assert again.coords == ("u", "r", "x1", "x2")
        assert again.params == {"m": 1.0}
        assert set(again.components) == set(spec.components)

    def test_unspecified_components_default_to_zero(self):
        g = loads_mspec(GOOD).metric()
        from confein.expressions import ZERO
        assert g.comps[1, 1] is ZERO
        assert g.comps[0, 1] is g.comps[1, 0]

    def test_symmetry_conflict_rejected(self):
        text = GOOD + "g[1][0] = 2\n"
        with pytest.raises(MetricSpecError) as exc:
            loads_mspec(text)
        assert exc.value.line is not None

    def test_mirror_duplicate_allowed_when_equal(self):
        text = GOOD + "g[1][0] = 1\n"
        loads_mspec(text)

    def test_parse_error_carries_line_number(self):
        text = GOOD.replace("g[0][1] = 1", "g[0][1] = 1 + * 2")
        with pytest.raises(MetricSpecError) as exc:
            loads_mspec(text)
        assert "line 6" in str(exc.value)

    def test_missing_dim_rejected(self):
        with pytest.raises(MetricSpecError):
            loads_mspec("coords = x, y, z\ng[0][0] = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(MetricSpecError):
            loads_mspec(GOOD + "weird = 1\n")

    def test_point_lines_pin_sampling(self):
        text = GOOD + "point = 0.3, 2.0, 0.1, -0.2\n"
        spec = loads_mspec(text)
        pts = spec.sample(n=10, seed=5)
        assert pts == [{"u": 0.3, "r": 2.0, "x1": 0.1, "x2": -0.2}]

    def test_pinned_points_are_never_redrawn(self):
        spec = loads_mspec(LOG_X + "point = -0.5, 0.0, 0.0\n")
        assert spec.sample(n=10, seed=0) == [{"x": -0.5, "y": 0.0, "z": 0.0}]

    def test_catalog_export_round_trip(self):
        spec = entry_to_mspec(get_entry("schwarzschild4"), n_points=4, seed=2)
        text = dumps_mspec(spec)
        again = loads_mspec(text)
        assert len(again.points) == 4
        assert dumps_mspec(again) == text


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)  # a run that writes no report reads None
    code = main(list(argv) + ["--json", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


@pytest.fixture(scope="module")
def schw_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("mspec") / "schw.mspec"
    code = main(["catalog", "export", "schwarzschild4", "--points", "4",
                 "--seed", "7", "--out", str(p)])
    assert code == 0
    return p


@pytest.fixture(scope="module")
def rt_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("mspec") / "rt.mspec"
    assert main(["catalog", "export", "rt5-quartic", "--points", "4",
                 "--seed", "7", "--out", str(p)]) == 0
    return p


class TestCli:
    def test_classify_einstein_exit_zero(self, tmp_path, schw_file):
        code, data = run_cli(tmp_path, "classify", str(schw_file))
        assert code == 0
        assert data["verdict"] == "conformally-einstein"
        assert data["rank_test"]["theorem"] == "tractor-rank"
        assert data["genericity"]["weakly_generic"] is True
        assert data["version"]

    @pytest.mark.parametrize("policy, size", [("auto", 4), ("from-C", 6)])
    def test_classify_builds_only_the_adjugate_it_reads(self, tmp_path,
                                                       monkeypatch, policy,
                                                       size):
        # schwarzschild4 (n = 4: L is 4 x 4, the Weyl operator 6 x 6) is
        # conformally Einstein, and K reads the adjugate of the one policy
        # it is built with: auto builds it from L, so L's adjugate is
        # built once for the verdict's chunk and once for the potential's
        # nodes, and the Weyl operator's never; from-C the other way round
        from confein import linalg
        p = tmp_path / "schw.mspec"
        assert main(["catalog", "export", "schwarzschild4", "--out",
                     str(p)]) == 0
        sizes = []
        adjugate = linalg.adjugate

        def counting_adjugate(a, d=None):
            sizes.append(np.shape(a)[-1])
            return adjugate(a, d)

        monkeypatch.setattr(linalg, "adjugate", counting_adjugate)
        argv = [] if policy == "auto" else ["--policy", policy]
        code, data = run_cli(tmp_path, "classify", str(p), *argv)
        assert code == 0 and len(data["potential"]) == 10
        assert sizes == [size, size]

    def test_scalar_tapes_compile_once_per_command(self, tmp_path,
                                                   monkeypatch):
        # 129 points of rt6-quartic walk 3 chunks; sigma's and upsilon's
        # tapes are compiled once for all of them
        p = tmp_path / "rt6.mspec"
        assert main(["catalog", "export", "rt6-quartic", "--points", "129",
                     "--out", str(p)]) == 0
        assert len(curvature.point_chunks(129, 6)) == 3
        heads = []
        for module in (curvature, geometry):
            def counting(exprs, compile_batch=module.compile_batch):
                heads.append(exprs[0])
                return compile_batch(exprs)
            monkeypatch.setattr(module, "compile_batch", counting)
        assert main(["tractor", str(p), "--sigma", "1 + x1/10"]) == 1
        assert heads.count(parse("1 + x1/10")) == 1
        heads.clear()
        assert main(["invariants", str(p), "--which", "E", "--upsilon",
                     "x1/4"]) == 0
        assert heads.count(parse("x1/4")) == 1

    def test_classify_compiles_the_ladder_once(self, tmp_path, monkeypatch):
        p = tmp_path / "schw.mspec"
        assert main(["catalog", "export", "schwarzschild4", "--out",
                     str(p)]) == 0
        compiles, loads, orders = [], [], []
        compile_batch = curvature.compile_batch
        init = curvature.CurvatureSamples.__init__

        def counting_compile(exprs):
            compiles.append(len(exprs))
            return compile_batch(exprs)

        def counting_init(self, pack, pts, order=1):
            loads.append([dict(q) for q in pts])
            orders.append(order)
            init(self, pack, pts, order)

        monkeypatch.setattr(curvature, "compile_batch", counting_compile)
        monkeypatch.setattr(curvature.CurvatureSamples, "__init__",
                            counting_init)
        code, data = run_cli(tmp_path, "classify", str(p))
        assert code == 0
        assert data["verdict"] == "conformally-einstein"
        assert data["rank_test"]["outcome"] == "conformally-einstein"
        # one metric-jet tape for the verdict, the potential and the rank
        # test
        assert len(compiles) == 1
        # the verdict's points are evaluated once; the other load is the
        # potential's quadrature nodes, 8 per target, in one chunk
        assert sum(pts == data["points"] for pts in loads) == 1
        assert [len(pts) for pts in loads] == [10, 8 * 9]
        # the nodes are sampled values only
        assert orders == [1, 0]
        # in chunks of 32 points: still one tape, and each verdict point
        # sampled once, in order, one load per chunk
        p70 = tmp_path / "schw70.mspec"
        assert main(["catalog", "export", "schwarzschild4", "--points",
                     "70", "--out", str(p70)]) == 0
        monkeypatch.setattr(curvature, "CHUNK_BYTES", 1)
        compiles.clear()
        loads.clear()
        code, data = run_cli(tmp_path, "classify", str(p70))
        assert code == 0
        assert len(compiles) == 1
        assert [len(pts) for pts in loads[:3]] == [32, 32, 6]
        assert loads[0] + loads[1] + loads[2] == data["points"]
        # the potential's 69 targets, 8 nodes each, 4 targets per chunk
        assert [len(pts) for pts in loads[3:]] == [32] * 17 + [8]
        # the Einstein-scale test runs the same metric-jet tape for the
        # Christoffel symbols' jet; its one other tape is sigma's jet
        compiles.clear()
        code, data = run_cli(tmp_path, "tractor", str(p), "--sigma", "1")
        assert code == 0
        assert data["einstein_scale"] is True
        assert len(compiles) == 2

    def test_classify_rt_exit_one_with_e_residual(self, tmp_path, rt_file):
        code, data = run_cli(tmp_path, "classify", str(rt_file))
        assert code == 1
        assert data["verdict"] == "not"
        assert data["residuals"]["E"]["max"] > 0
        assert data["rank_test"]["outcome"] == "not"

    def test_classify_sphere_exit_two(self, tmp_path):
        p = tmp_path / "sphere.mspec"
        main(["catalog", "export", "constant-curvature4", "--points", "4",
              "--out", str(p)])
        code, data = run_cli(tmp_path, "classify", str(p))
        assert code == 2
        assert data["verdict"] == "inconclusive"
        assert not data["genericity"]["weakly_generic"]

    def test_classify_deterministic_byte_identical(self, tmp_path, schw_file):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["classify", str(schw_file), "--seed", "7",
                     "--json", str(a)]) == 0
        assert main(["classify", str(schw_file), "--seed", "7",
                     "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_classify_redraws_points_where_the_metric_is_undefined(
            self, tmp_path):
        p = tmp_path / "logx.mspec"
        p.write_text(LOG_X)
        code, data = run_cli(tmp_path, "classify", str(p))
        assert code in (0, 1, 2)
        assert len(data["points"]) == 10
        assert all(pt["x"] > 0 for pt in data["points"])

    def test_classify_reads_the_input_once(self, tmp_path, schw_file,
                                           monkeypatch):
        # the digest hashes the very bytes that were parsed: the file is
        # opened once, and CRLF line ends are hashed as they are on disk
        p = tmp_path / "crlf.mspec"
        p.write_bytes(schw_file.read_bytes().replace(b"\n", b"\r\n"))
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(p):
                opened.append(args)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        code, data = run_cli(tmp_path, "classify", str(p), "--seed", "7")
        monkeypatch.undo()
        assert opened == [("rb",)]
        assert data["input_digest"] == hashlib.sha256(
            p.read_bytes()).hexdigest()
        _, plain = run_cli(tmp_path, "classify", str(schw_file), "--seed",
                           "7")
        assert code == 0
        plain["input_digest"] = data["input_digest"]
        assert data == plain

    def test_input_error_exit_three(self, tmp_path):
        p = tmp_path / "bad.mspec"
        p.write_text("dim = 4\ncoords = a, b\n")
        assert main(["classify", str(p)]) == 3
        assert main(["classify", str(tmp_path / "missing.mspec")]) == 3

    def test_bad_tolerance_exit_three(self, tmp_path, schw_file):
        assert main(["classify", str(schw_file), "--tol-rel", "-1"]) == 3

    def test_decisive_is_a_constant_of_the_tolerances(self, tmp_path,
                                                       schw_file):
        # a class-level constant, not a field: it cannot be set, and every
        # report states it
        with pytest.raises(TypeError):
            Tolerances(decisive=0.5)
        assert Tolerances(tol_rel=1e-6).decisive == 1e-3
        _, data = run_cli(tmp_path, "identities", str(schw_file))
        assert data["tolerances"]["decisive"] == 0.001

    def test_invariants_command(self, tmp_path, rt_file):
        code, data = run_cli(tmp_path, "invariants", str(rt_file),
                             "--which", "cspace,bach,E,F1,F2,G,Gbar")
        assert code == 0
        inv = data["invariants"]
        assert inv["cspace"]["max"] < 1e-8 * inv["cspace"]["scale"]
        assert inv["bach"]["max"] > 1e-3 * inv["bach"]["scale"]
        assert data["G_cross_check_rel"] < 1e-7 if "G_cross_check_rel" in data \
            else inv["G_cross_check_rel"] < 1e-7

    def test_invariants_unknown_name_rejected(self, tmp_path, rt_file):
        assert main(["invariants", str(rt_file), "--which", "bogus"]) == 3

    @pytest.mark.parametrize("which", [",", "", " , "])
    def test_invariants_empty_which_rejected(self, tmp_path, rt_file,
                                             capsys, which):
        # a --which that names no invariant is an input error, not an
        # empty report
        code, data = run_cli(tmp_path, "invariants", str(rt_file),
                             "--which", which)
        assert (code, data) == (3, None)
        err = capsys.readouterr().err
        assert err.startswith("error: --which names no invariant")
        assert err.count("\n") == 1

    def test_invariants_outside_their_dimension_rejected(self, tmp_path,
                                                         rt_file, capsys):
        p = tmp_path / "cc3.mspec"
        assert main(["catalog", "export", "constant-curvature3",
                     "--out", str(p)]) == 0
        for name in ("F1", "F2", "G", "Gbar", "dim4"):
            assert main(["invariants", str(p), "--which", name]) == 3, name
        assert main(["invariants", str(rt_file), "--which", "E,dim4"]) == 3
        assert "not defined in dimension 5" in capsys.readouterr().err

    def test_weyl_note_uses_the_policy_gates_criterion(self, tmp_path):
        # at tol_rel 1e-20 the policy gates (rank_tol times the per-point
        # scale) still find the Weyl tensor zero, and so does the note
        p = tmp_path / "sphere.mspec"
        assert main(["catalog", "export", "constant-curvature4",
                     "--out", str(p)]) == 0
        code, data = run_cli(tmp_path, "classify", str(p), "--tol-rel",
                             "1e-20")
        assert code == 2
        assert all("the Weyl tensor vanishes numerically" in note
                   for note in data["notes"][:3])
        assert data["notes"][3].startswith(
            "Weyl tensor vanishes at the sample points")

    def test_internal_fault_exit_four(self, tmp_path, schw_file, monkeypatch,
                                      capsys):
        # a ValueError inside the pipeline is no input error
        def fault(self, points):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(curvature.CurvaturePack, "samples", fault)
        assert main(["classify", str(schw_file)]) == 4
        assert capsys.readouterr().err.startswith("internal error: ValueError")

    def test_fault_in_the_potential_exit_four(self, schw_file, monkeypatch,
                                              capsys):
        # only a singular integration path leaves a note; any other
        # error while integrating K is a fault of the program
        def fault(*args, **kwargs):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr(obstructions, "reconstruct_potential", fault)
        assert main(["classify", str(schw_file)]) == 4
        assert capsys.readouterr().err.startswith(
            "internal error: ZeroDivisionError")

    def test_input_errors_outside_the_readers_exit_three(self, tmp_path,
                                                         schw_file):
        # typed errors name the input wherever they are raised
        assert main(["tractor", str(schw_file), "--sigma", "1 + y"]) == 3
        assert main(["tractor", str(schw_file), "--sigma", "x1 - x1"]) == 3
        assert main(["tractor", str(schw_file), "--sigma", "1 +"]) == 3
        assert main(["invariants", str(schw_file), "--upsilon", "log("]) == 3
        assert main(["catalog", "export", "no-such-entry"]) == 3

    def test_complex_constant_is_an_input_error(self, tmp_path, capsys):
        # (-1)^0.75 is complex, so it is not folded: it stays a power,
        # whose domain check in the tape names the pinned point
        p = tmp_path / "complex.mspec"
        p.write_text("dim = 3\ncoords = x, y, z\ng[0][0] = 2 + (-1)^(0.75)*x"
                     "\ng[1][1] = 1\ng[2][2] = 1\npoint = 1, 0, 0\n")
        for command in ("classify", "invariants", "identities", "tractor"):
            assert main([command, str(p)]) == 3
            assert capsys.readouterr().err == (
                "error: fractional power of a negative value at point "
                "{'x': 1.0}\n")

    @pytest.mark.parametrize("args", [
        ["classify", "{dir}"],
        ["catalog", "export", "flat4", "--out", "{dir}"],
        ["catalog", "export", "schwarzschild4", "--seed", "-1"]],
        ids=["classify-a-directory", "export-to-a-directory",
             "export-negative-seed"])
    def test_unusable_files_and_seeds_exit_three(self, tmp_path, args,
                                                 capsys):
        # an input or output path that cannot be opened, and a seed the
        # point sampler rejects, are faults of the input
        argv = [a.format(dir=tmp_path) for a in args]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("which", ["E", "G", "Gbar"])
    def test_invariants_gate_at_the_callers_rank_tol(self, rt_file, which,
                                                      capsys):
        # at rank_tol 0.5 the Weyl tensor of rt5-quartic counts as zero, so
        # every left-inverse policy fails, G's and Gbar's too
        assert main(["invariants", str(rt_file), "--which", which,
                     "--rank-tol", "0.5"]) == 3
        assert "vanishes numerically" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_determinant_fails_the_policy(self, tmp_path):
        # genericity zeroes ||L|| and ||C|| where the Weyl tensor vanishes
        # at the default rank_tol; a finer rank_tol must not divide by them
        p = tmp_path / "sphere.mspec"
        main(["catalog", "export", "constant-curvature4", "--out", str(p)])
        code, data = run_cli(tmp_path, "classify", str(p),
                             "--rank-tol", "1e-20")
        assert code != 4
        assert not any(np.isnan(r["max"]) for r in data["residuals"].values())
        assert data["notes"][0].startswith(
            "policy from-L: ||L|| = 0.000e+00 vanishes at point")
        assert data["notes"][1].startswith(
            "policy from-C: ||C|| = 0.000e+00 vanishes at point")

    def test_tensor_route_conflict_is_the_verdict(self, tmp_path, rt_file,
                                                  monkeypatch):
        # rt5-quartic is "not" by the E route and the tractor rank; an E/F
        # disagreement inside the tensor pipeline must still surface
        real = cli.decide_tensor_verdict

        def conflicting(*args, **kwargs):
            rep = real(*args, **kwargs)
            rep.verdicts.append(Verdict(
                "internal-consistency", "conflict", "generic",
                "the E and F routes disagree beyond tolerance"))
            return rep

        monkeypatch.setattr(cli, "decide_tensor_verdict", conflicting)
        code, data = run_cli(tmp_path, "classify", str(rt_file))
        assert data["rank_test"]["outcome"] == "not"
        assert data["verdict"] == "conflict"
        assert code == 2

    def test_rank_route_conflict_adds_the_note(self, tmp_path, rt_file,
                                               monkeypatch):
        # rt5-quartic is "not" by the tensor route; a tractor rank test
        # saying "conformally-einstein" is a disagreement of the pipelines
        real = cli.rank_verdict

        def einstein(*args, **kwargs):
            rep = real(*args, **kwargs)
            rep.verdict = "conformally-einstein"
            return rep

        monkeypatch.setattr(cli, "rank_verdict", einstein)
        code, data = run_cli(tmp_path, "classify", str(rt_file))
        assert data["rank_test"]["outcome"] == "conformally-einstein"
        assert data["verdict"] == "conflict"
        assert code == 2
        assert data["notes"][-1] == (
            "internal-consistency error: the tensor and tractor-rank "
            "pipelines disagree")

    @pytest.mark.parametrize("command",
                             ["classify", "invariants", "identities",
                              "tractor"])
    def test_degenerate_pinned_point_exit_three(self, tmp_path, command,
                                                capsys):
        # pinned points are never redrawn, so the degenerate one reaches
        # the sampled check and is named there
        p = tmp_path / "degenerate.mspec"
        p.write_text(DEGENERATE_X)
        assert main([command, str(p)]) == 3
        assert capsys.readouterr().err == (
            "error: metric is degenerate at {'x': 0.0, 'y': 0.0, 'z': 0.0}\n")

    # the tape runs on 32 points and, at n = 5, the ladder on 8 of them:
    # index 9 is in a later ladder step of the first run, index 33 at
    # n = 4 in a later run; an earlier degenerate point still wins
    @pytest.mark.parametrize("n, bad, named", [
        (5, {9}, 9), (5, {3, 9}, 3), (4, {33}, 33), (4, {5, 33}, 5)])
    def test_classify_names_the_first_degenerate_point(self, tmp_path,
                                                       capsys, n, bad,
                                                       named):
        coords = [f"x{i}" for i in range(n)]
        pts = [[0.0 if p in bad and i == 0 else 1.0 + p / 100 + i
                for i in range(n)] for p in range(41)]
        lines = [f"dim = {n}", "coords = " + ", ".join(coords),
                 "g[0][0] = x0"]
        lines += [f"g[{i}][{i}] = 1" for i in range(1, n)]
        lines += ["point = " + ", ".join(map(repr, pt)) for pt in pts]
        p = tmp_path / "degenerate.mspec"
        p.write_text("\n".join(lines) + "\n")
        assert main(["classify", str(p)]) == 3
        want = dict(zip(coords, pts[named]))
        assert capsys.readouterr().err == (
            f"error: metric is degenerate at {want}\n")

    # undefined on the whole box, overflowing, and degenerate by the
    # relative eigenvalue cut at either end of the float range: with drawn
    # points, sampling finds no regular point and names the box it searched
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("diag", [
        ("sqrt(x - 100)", "1", "1", "1"),
        ("exp(1000*x)", "1", "1", "1"),
        ("1e200", "1", "1", "1 + x*y"),
        ("1e-200", "1e-200", "1e-200", "1e-200*(1 + x*y)")],
        ids=["undefined", "overflow", "large", "small"])
    def test_unsampleable_metric_exit_three(self, tmp_path, capsys, diag):
        lines = ["dim = 4", "coords = x, y, z, w"]
        lines += [f"g[{i}][{i}] = {e}" for i, e in enumerate(diag)]
        p = tmp_path / "unsampleable.mspec"
        p.write_text("\n".join(lines) + "\n")
        assert main(["classify", str(p), "--points", "4"]) == 3
        assert capsys.readouterr().err == (
            "error: cannot sample 4 points: 0 of 4000 drawn from the box "
            "x in [0.5, 1.5], y in [0.5, 1.5], z in [0.5, 1.5], "
            "w in [0.5, 1.5] miss the singular loci and have a defined, "
            "finite, nondegenerate metric\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_at_a_pinned_point_exit_three(self, tmp_path, capsys):
        # exp(1000 x) overflows at x = 1 but not at x = 0.5: the tape names
        # the first point where a value is too large for a float, by the
        # symbols it reads
        p = tmp_path / "overflow.mspec"
        p.write_text("dim = 3\ncoords = x, y, z\ng[0][0] = exp(1000*x)\n"
                     "g[1][1] = 1\ng[2][2] = 1\npoint = 0.5, 0, 0\n"
                     "point = 1, 0, 0\npoint = 2, 0, 0\n")
        assert main(["classify", str(p)]) == 3
        assert capsys.readouterr().err == (
            "error: overflow: a value too large for a float at point "
            "{'x': 1.0}\n")

    # FOUND: a metric in large units overflows inside classify, an
    # internal error (exit 4): at 1e200 the volume form sqrt|det g| of the
    # dual system (n = 5), at 1e30 the reciprocal of D = ||L|| in the K
    # jet (n = 4): the units of ROADMAP item 2
    @pytest.mark.xfail(strict=True, reason="FOUND: overflow in large units")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text", [
        "dim = 5\ncoords = x, y, z, w, u\n"
        + "".join(f"g[{i}][{i}] = 1e200\n" for i in range(5))
        + "point = -1.5, -1.5, -1.5, -1.5, -1.5\n",
        "dim = 4\ncoords = x, y, z, w\ng[0][0] = 1e30*(1 + exp(y)/4)\n"
        "g[1][1] = 1e30*(1 + x*z/4)\ng[2][2] = 1e30\ng[3][3] = 1e30\n"
        "g[0][2] = 1e30*sqrt(1 + x*y)/8\n"], ids=["det-g", "reciprocal-D"])
    def test_large_units_end_in_a_verdict_or_an_input_error(
            self, tmp_path, text):
        p = tmp_path / "units.mspec"
        p.write_text(text)
        assert main(["classify", str(p), "--points", "3"]) != 4

    def test_invariants_covariance_section(self, tmp_path, rt_file):
        code, data = run_cli(tmp_path, "invariants", str(rt_file),
                             "--which", "G", "--upsilon", "log(r)")
        assert code == 0
        cov = data["covariance"]
        assert cov["weyl_operator_det"]["fitted_exponent"] == pytest.approx(
            -20, abs=1e-6)
        assert cov["G"]["fitted_exponent"] == pytest.approx(-40, abs=1e-6)

    def test_identities_command(self, tmp_path, schw_file):
        code, data = run_cli(tmp_path, "identities", str(schw_file))
        assert code == 0
        assert all(v["pass"] for v in data["identities"].values())

    def test_sigma_error_names_the_first_vanishing_point(self, tmp_path,
                                                         capsys):
        # sigma = x - 1 is below 1e-12 at the second and third pinned
        # points; the error names the second, the first in point order,
        # not the third, where |sigma| is smallest
        p = tmp_path / "flat3.mspec"
        p.write_text("dim = 3\ncoords = x, y, z\ng[0][0] = 1\ng[1][1] = 1\n"
                     "g[2][2] = 1\npoint = 0.5, 0, 0\n"
                     "point = 1.0000000000001, 0, 0\npoint = 1, 0, 0\n")
        assert main(["tractor", str(p), "--sigma", "x - 1"]) == 3
        assert capsys.readouterr().err == (
            "error: sigma vanishes (conformal singularity) at point "
            "{'x': 1.0000000000001, 'y': 0.0, 'z': 0.0}\n")

    def test_tractor_command(self, tmp_path, schw_file, rt_file):
        code, data = run_cli(tmp_path, "tractor", str(schw_file),
                             "--sigma", "1")
        assert code == 0 and data["einstein_scale"] is True
        code, data = run_cli(tmp_path, "tractor", str(rt_file),
                             "--sigma", "1")
        assert code == 1 and data["einstein_scale"] is False

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_catalog_export_needs_a_point(self, tmp_path, points, capsys):
        out = tmp_path / "none.mspec"
        assert main(["catalog", "export", "schwarzschild4", "--points",
                     points, "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "need at least one sample point" in err
        p = tmp_path / "schw.mspec"
        assert main(["catalog", "export", "schwarzschild4", "--out",
                     str(p)]) == 0
        assert main(["classify", str(p), "--points", points]) == 3
        assert capsys.readouterr().err == err

    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "schwarzschild4" in out and "hyperkahler4" in out

    @pytest.mark.parametrize("argv", [
        ["classify", "{file}", "--points", "2"],
        ["invariants", "{file}", "--points", "2", "--which", "E,F1"],
        ["identities", "{file}", "--points", "2"],
        ["tractor", "{file}", "--points", "2", "--sigma", "1 + r/10"],
        ["catalog", "list"],
        ["catalog", "export", "flat4", "--points", "1"],
        ["-h"], ["classify", "-h"], ["invariants", "-h"], ["identities", "-h"],
        ["tractor", "-h"], ["catalog", "-h"],
        [], ["nope"], ["classify", "{file}", "--bogus"], ["classify"],
        ["catalog", "bogus"], ["--policy", "nope"],
        ["classify", "{file}", "--policy", "nope"],
        ["--points", "2", "classify", "{file}"],
    ], ids=lambda argv: " ".join(argv) or "no-argument")
    def test_one_command_parser_matches_the_full_parser(self, schw_file,
                                                        argv, monkeypatch,
                                                        capsys):
        # main builds only the parser of the command argv names; stdout,
        # stderr and the exit code are those of the parser of every command
        argv = [a.format(file=schw_file) for a in argv]
        built = []
        one_command = cli.build_parser

        def run():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, out, err

        monkeypatch.setattr(cli, "build_parser", lambda command=None: (
            built.append(command) or one_command(command)))
        got = run()
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: one_command(None))
        assert got == run()
        assert built == [argv[0] if argv and argv[0] in cli._COMMANDS
                         else None]

    def test_console_entry_point(self, schw_file):
        r = subprocess.run([sys.executable, "-m", "confein.cli", "identities",
                            str(schw_file), "--points", "3"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert json.loads(r.stdout)["identities"]


# a Riemannian 4-metric whose curvature is small in its own units, at the
# 6 points that sampling with seed 21 draws
STATE4 = {(0, 0): "1 + 3*x^2/20", (0, 1): "w*x/20", (0, 3): "-w^2/10",
          (1, 1): "1 - x^2/20", (1, 2): "-y*z/10", (1, 3): "-w*x/20",
          (2, 2): "1 - x*z/10", (3, 3): "1"}
STATE4_POINTS = """\
point = 1.2811175888174708, 1.1058470295709681, 1.2098011904084252, 0.5890978729222089
point = 1.1307144158739044, 1.4808107022244528, 0.923405172359756, 0.6124030833473423
point = 1.4582664453658425, 1.1759821849217067, 0.6971927359449456, 1.1720592565267869
point = 1.492741627736593, 0.7094854740064952, 1.3538597985125334, 1.19891078522735
point = 0.7216750275767851, 0.6847717322552612, 1.4541570321805133, 0.8404375276040051
point = 0.9413944990194535, 1.1560873517444037, 0.9403019037015443, 0.5002645039804519
"""


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: scales are raw components floored at 1, so the F "
    "route passes or fails with the units of g"))
def test_constant_rescaling_keeps_the_verdict(tmp_path):
    outcomes = []
    for c in ("1/100", "1/4", "1", "4", "100"):
        p = tmp_path / "state4.mspec"
        p.write_text("dim = 4\ncoords = x, y, z, w\n"
                     + "".join(f"g[{i}][{j}] = {c}*({e})\n"
                               for (i, j), e in STATE4.items())
                     + STATE4_POINTS)
        code, data = run_cli(tmp_path, "classify", str(p))
        outcomes.append((data["verdict"], code))
    assert len(set(outcomes)) == 1, outcomes
    assert outcomes[0][0] != "conflict", outcomes


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: scales and floors are raw components, so the verdict "
    "moves with the units of the coordinates"))
def test_linear_coordinate_change_keeps_the_verdict(tmp_path):
    # x = lam x' on every coordinate: g'(x') = lam^2 g(lam x'), and the
    # pinned points are divided by lam (today: conflict, inconclusive, not)
    outcomes = []
    for lam in ("1", "1/100", "100"):
        def scaled(e):
            return re.sub("[xyzw]", lambda m: f"(({lam})*{m.group()})", e)
        points = "".join(
            "point = " + ", ".join(repr(float(Fraction(v) / Fraction(lam)))
                                   for v in line.split(" = ")[1].split(", "))
            + "\n" for line in STATE4_POINTS.splitlines())
        p = tmp_path / "state4.mspec"
        p.write_text("dim = 4\ncoords = x, y, z, w\n"
                     + "".join(f"g[{i}][{j}] = ({lam})^2*({scaled(e)})\n"
                               for (i, j), e in STATE4.items())
                     + points)
        code, data = run_cli(tmp_path, "classify", str(p))
        outcomes.append((data["verdict"], code))
    assert len(set(outcomes)) == 1, outcomes
    assert outcomes[0][0] != "conflict", outcomes


# the polynomial 6-metric of ROADMAP State in the unit U; its tractor rank
# is 8 = n + 2 at every unit from 1e-6 to 1e6
STATE6 = {(0, 0): "1 + y^2/4", (1, 1): "1 + x*z/4", (0, 2): "(1 + x*y)/8",
          (2, 2): "1", (3, 3): "1", (4, 4): "1", (5, 5): "1"}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the rank floor is raw components floored at 1, so "
    "large units drop the tractor rank and turn 'not' into an exit 0"))
def test_units_keep_the_verdict_of_a_polynomial_6_metric(tmp_path):
    # at 3 points of seed 0 today: "not" (exit 1, ranks 8) at U = 1,
    # "conflict" (exit 2, ranks 7) at 1e8, and "conformally-einstein"
    # (exit 0, ranks 7) at 1e12, where _reciprocal overflows, so exit 4
    # under -W error::RuntimeWarning
    outcomes = []
    for unit in ("1", "1e8", "1e12"):
        p = tmp_path / "state6.mspec"
        p.write_text("dim = 6\ncoords = x, y, z, u, v, w\n"
                     + "".join(f"g[{i}][{j}] = {unit}*({e})\n"
                               for (i, j), e in STATE6.items()))
        code, data = run_cli(tmp_path, "classify", str(p), "--points", "3",
                             "--seed", "0")
        outcomes.append((data and data["verdict"], code))
    assert len(set(outcomes)) == 1, outcomes
    assert outcomes[0][0] != "conflict" and outcomes[0][1] != 0, outcomes


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: at rank_tol 1e-20 the F route passes a roundoff F1 "
    "through tol_abs and the dim4-C3 E route says 'not'"))
def test_conformally_flat_metric_never_conflicts(tmp_path):
    # constant-curvature4 is "inconclusive" at the default rank_tol; at
    # 1e-20 it is "conflict" (exit 2) today: the lambda2 route says "not",
    # bach-cotton-system "conformally-einstein" and the rank test "not"
    p = tmp_path / "sphere.mspec"
    main(["catalog", "export", "constant-curvature4", "--out", str(p)])
    for rank_tol in ("1e-8", "1e-20"):
        _, data = run_cli(tmp_path, "classify", str(p), "--rank-tol",
                          rank_tol)
        assert data["verdict"] != "conflict", (rank_tol, data["verdict"])


INVARIANTS_6 = "E,cspace,bach,F1,F2,G,Gbar"


def _same_floats(got, want):
    """got has the keys of want, and every float of want to the bit (repr),
    NaN for NaN."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            _same_floats(got[key], want[key])
    else:
        assert repr(got) == repr(want) and (got == want or got != got), (
            got, want)


def _classify_bytes(tmp_path, mspec, chunk_bytes, monkeypatch):
    """(exit code, report bytes) of classify with curvature.CHUNK_BYTES
    set."""
    monkeypatch.setattr(curvature, "CHUNK_BYTES", chunk_bytes)
    out = tmp_path / f"report-{chunk_bytes}.json"
    code = main(["classify", str(mspec), "--json", str(out)])
    return code, out.read_bytes()


# one run of the metric-jet tape (32 points) per chunk, and one chunk for all
SMALL, WHOLE = 1, 2 ** 50


class TestChunkedClassify:
    """classify walks its points in chunks; the report does not depend on
    how many."""

    @pytest.mark.parametrize("name, count, code", [
        ("rt6-quartic", 200, 1),            # 7 chunks, the last one short
        ("schwarzschild4", 70, 0),          # the potential
        ("pp-wave4", 70, 2),                # no policy applies
        ("constant-curvature4", 70, 2),     # the Weyl tensor vanishes
    ])
    def test_chunks_give_the_same_bytes(self, tmp_path, monkeypatch, name,
                                        count, code):
        p = tmp_path / f"{name}.mspec"
        assert main(["catalog", "export", name, "--points", str(count),
                     "--out", str(p)]) == 0
        whole = _classify_bytes(tmp_path, p, WHOLE, monkeypatch)
        assert len(curvature.point_chunks(count, 6)) == 1
        small = _classify_bytes(tmp_path, p, SMALL, monkeypatch)
        assert len(curvature.point_chunks(count, 4)) == -(-count // 32)
        assert small == whole
        assert whole[0] == code

    def test_chunk_size_is_a_multiple_of_the_ladder_chunk(self):
        # the default budget gives 512, 160 and 64 points per chunk at
        # n = 4, 5 and 6, whole runs of the metric-jet tape (32 points)
        steps = [curvature.point_chunks(10 ** 4, n)[0].stop for n in (4, 5, 6)]
        assert steps == [512, 160, 64]
        for n in (3, 4, 5, 6):
            sl = curvature.point_chunks(1000, n)
            assert sl[0].start == 0 and sl[-1].stop == 1000
            assert all(a.stop == b.start for a, b in zip(sl, sl[1:]))
            assert all((s.stop - s.start) % curvature._CHUNK == 0
                       for s in sl[:-1])

    @staticmethod
    def _zero_at(monkeypatch, name, points, where):
        """Make obstructions.<name> report a zero determinant (or, for
        weyl_vanishes, a vanishing Weyl tensor) at the given points."""
        real = getattr(obstructions, name)
        keys = {tuple(sorted(points[i].items())) for i in where}

        def hits(s):
            return np.array([tuple(sorted(q.items())) in keys
                             for q in s.points])

        def patched(s, *args):
            out = real(s, *args)
            if name == "weyl_vanishes":
                return out | hits(s)
            dets = out.dets.copy()
            dets[hits(s)] = 0.0
            return Operators(out.matrices, dets, out.pivots,
                             lambda: out.adjugates)
        monkeypatch.setattr(obstructions, name, patched)

    @pytest.mark.parametrize("case", ["late-from-L", "weyl-after-operator"])
    def test_policy_fallback_across_chunks(self, tmp_path, monkeypatch,
                                           case):
        # rt4-quartic at 100 points: chunks of 32, 32, 32 and 4 points
        p = tmp_path / "rt4.mspec"
        assert main(["catalog", "export", "rt4-quartic", "--points", "100",
                     "--out", str(p)]) == 0
        pts = get_entry("rt4-quartic").points(n=100, seed=0)
        if case == "late-from-L":
            # from-L first fails in the third chunk, from-C in the first
            # and the third: the earlier chunks are measured again, twice,
            # and from-C's note names its first failure
            self._zero_at(monkeypatch, "l_operators", pts, [70, 90])
            self._zero_at(monkeypatch, "weyl_operators", pts, [10, 75])
        else:
            # an operator fails in chunk 0, the Weyl tensor vanishes in
            # chunk 2: every note names the vanishing Weyl tensor
            self._zero_at(monkeypatch, "l_operators", pts, [5])
            self._zero_at(monkeypatch, "weyl_vanishes", pts, [80])
        whole = _classify_bytes(tmp_path, p, WHOLE, monkeypatch)
        small = _classify_bytes(tmp_path, p, SMALL, monkeypatch)
        a, b = json.loads(whole[1]), json.loads(small[1])
        for key in ("notes", "k_provenance", "verdict"):
            assert b[key] == a[key], key
        assert small == whole
        if case == "late-from-L":
            assert a["k_provenance"] == "dim4-C3"
            assert [note.split(":")[0] for note in a["notes"]] == [
                "policy from-L", "policy from-C"]
            assert str(pts[70]) in a["notes"][0]
            assert str(pts[10]) in a["notes"][1]
        else:
            assert a["k_provenance"] is None
            assert len(a["notes"]) == 3
            assert all("the Weyl tensor vanishes numerically at point "
                       f"{pts[80]}" in note for note in a["notes"])

    def test_memory_is_flat_in_the_points(self, tmp_path):
        # the tracemalloc peak of classify grows by far less than the
        # fourfold batch, and stays under 11 MiB: 64-point chunks whose
        # stages hold one slice of points at a time peak at about 9.9 MiB
        # (12.6 MiB when the samples, K and genericity stages held the
        # whole chunk's intermediates at once)
        import tracemalloc

        peaks = []
        for count in (200, 800):
            p = tmp_path / f"rt6-{count}.mspec"
            assert main(["catalog", "export", "rt6-quartic", "--points",
                         str(count), "--out", str(p)]) == 0
            tracemalloc.start()
            try:
                code = main(["classify", str(p), "--json",
                             str(tmp_path / "out.json")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 1
        assert peaks[1] < 1.5 * peaks[0], peaks
        assert max(peaks) < 11 * 2 ** 20, peaks

    def test_identities_memory_is_flat_in_the_points(self, tmp_path):
        # identities samples one 64-point chunk at a time and keeps the
        # per-point residuals only: its tracemalloc peak is about 20.3 MiB
        # at both counts (61 and 243 MiB when the whole batch was sampled
        # at once)
        import tracemalloc

        peaks = []
        for count in (200, 800):
            p = tmp_path / f"rt6-{count}.mspec"
            assert main(["catalog", "export", "rt6-quartic", "--points",
                         str(count), "--out", str(p)]) == 0
            tracemalloc.start()
            try:
                code = main(["identities", str(p), "--json",
                             str(tmp_path / "out.json")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] < 1.5 * peaks[0], peaks
        assert max(peaks) < 24 * 2 ** 20, peaks

    @staticmethod
    def _traced_peaks(tmp_path, argv, code):
        """tracemalloc peaks of a command on rt6-quartic at 200 and 800
        points, each run exiting with `code`."""
        import tracemalloc

        peaks = []
        for count in (200, 800):
            p = tmp_path / f"rt6-{count}.mspec"
            assert main(["catalog", "export", "rt6-quartic", "--points",
                         str(count), "--out", str(p)]) == 0
            tracemalloc.start()
            try:
                got = main([argv[0], str(p), *argv[1:], "--json",
                            str(tmp_path / "out.json")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert got == code
        return peaks

    def test_invariants_memory_is_flat_in_the_points(self, tmp_path):
        # invariants samples one 64-point chunk at a time and keeps
        # per-point figures only: about 10.3 and 10.8 MiB (29.9 and 117.4
        # MiB when the whole batch was sampled at once)
        peaks = self._traced_peaks(
            tmp_path, ["invariants", "--which", INVARIANTS_6], 0)
        assert peaks[1] < 1.5 * peaks[0], peaks
        assert max(peaks) < 12 * 2 ** 20, peaks

    def test_tractor_memory_is_flat_in_the_points(self, tmp_path):
        # tractor checks one 64-point chunk at a time: about 9.6 and 10.2
        # MiB (16.6 and 64.3 MiB when the whole batch was sampled at once)
        peaks = self._traced_peaks(
            tmp_path, ["tractor", "--sigma", "1 + x1/10"], 1)
        assert peaks[1] < 1.5 * peaks[0], peaks
        assert max(peaks) < 12 * 2 ** 20, peaks

    def test_chunked_invariants_and_tractor_equal_a_whole_batch_oracle(
            self, tmp_path):
        # 129 points of rt6-quartic are three chunks (64, 64 and 1): every
        # figure of invariants and tractor, joined over the chunks, is the
        # one computed here on one whole-batch CurvatureSamples, to the bit
        from confein.geometry import conformal_rescale, evaluate_components
        from confein.tractor import parallel_tractor_check

        p = tmp_path / "rt6-129.mspec"
        assert main(["catalog", "export", "rt6-quartic", "--points", "129",
                     "--out", str(p)]) == 0
        assert [sl.stop - sl.start
                for sl in curvature.point_chunks(129, 6)] == [64, 64, 1]
        spec = loads_mspec(p.read_text())
        pts, tol, ob = spec.sample(), Tolerances(), obstructions
        pack = curvature.CurvaturePack(spec.metric())
        s = pack.samples(pts)
        k = ob.k_field(s, "from-L", tol)
        ups = parse("x1/4")
        hs = curvature.CurvaturePack(conformal_rescale(pack.g, ups)).samples(
            pts)
        uvals = evaluate_components(ups, s.bindings)
        displays = {
            "cspace": lambda s: ob.cspace_residual(s, k),
            "bach": lambda s: ob.bach_residual(s, k),
            "E": lambda s: ob.e_tensor(s, k),
            "F1": ob.f1, "F2": ob.f2,
            "G": lambda s: ob.g_tensor(s, tol),
            "Gbar": lambda s: ob.gbar_tensor(s, tol),
        }
        inv = {name: {"max": float(np.max(np.abs(f(s).values))),
                      "scale": float(np.max(f(s).scale))}
               for name, f in displays.items()}
        for name, f in (("G", ob.g_tensor), ("Gbar", ob.gbar_tensor)):
            cross = ob.e_cross_check(s, f(s, tol), tol)
            inv[f"{name}_cross_check_rel"] = float(
                np.max(np.abs(cross.values))
                / max(np.max(cross.scale), 1e-300))
        cov = {}
        for name in ("F1", "G", "Gbar"):
            w, spread = ob.covariance_exponent(
                displays[name](s).values, displays[name](hs).values, uvals)
            cov[name] = {"fitted_exponent": w, "spread": spread}
        w, spread = ob.covariance_exponent(
            weyl_operators(s).dets[:, None], weyl_operators(hs).dets[:, None],
            uvals)
        cov["weyl_operator_det"] = {"expected": -30.0,
                                    "fitted_exponent": w, "spread": spread}
        want = {"invariants": inv, "covariance": cov,
                "k_closedness": float(np.max(k.closedness()))}
        code, data = run_cli(tmp_path, "invariants", str(p), "--which",
                             INVARIANTS_6, "--upsilon", "x1/4")
        assert code == 0
        _same_floats({key: data[key] for key in want}, want)

        rep = parallel_tractor_check(s, parse("1 + x1/10"), tol)
        want = {"einstein_scale": rep["is_einstein_scale"],
                **{key: rep[key] for key in (
                    "parallel_residual", "scale",
                    "rescaled_trace_free_schouten")}}
        # the maxima are the same with the points reversed, where the
        # first chunk holds the other end of the batch
        lines = p.read_text().splitlines(keepends=True)
        pinned = [line for line in lines if line.startswith("point =")]
        rev = tmp_path / "rt6-129-reversed.mspec"
        rev.write_text("".join(line for line in lines
                               if line not in pinned) + "".join(pinned[::-1]))
        for path in (p, rev):
            code, data = run_cli(tmp_path, "tractor", str(path), "--sigma",
                                 "1 + x1/10")
            assert code == 1
            _same_floats({key: data[key] for key in want}, want)

    def test_invariants_gate_names_the_first_failing_chunk(
            self, tmp_path, monkeypatch, capsys):
        # rt4-quartic at 100 points, the operator ||L|| made zero at point
        # 5 and the Weyl tensor at point 80: in chunks of 32 points the
        # gate fails in the first chunk, on ||L||; in one chunk it checks
        # the Weyl tensor at every point first.  classify notes the Weyl
        # tensor either way (test_policy_fallback_across_chunks)
        p = tmp_path / "rt4.mspec"
        assert main(["catalog", "export", "rt4-quartic", "--points", "100",
                     "--out", str(p)]) == 0
        pts = get_entry("rt4-quartic").points(n=100, seed=0)
        self._zero_at(monkeypatch, "l_operators", pts, [5])
        self._zero_at(monkeypatch, "weyl_vanishes", pts, [80])
        errs = []
        for chunk_bytes in (SMALL, WHOLE):
            monkeypatch.setattr(curvature, "CHUNK_BYTES", chunk_bytes)
            assert main(["invariants", str(p), "--which", "E"]) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == ("error: policy from-L: ||L|| = 0.000e+00 "
                           f"vanishes at point {pts[5]}\n")
        assert errs[1].startswith(
            "error: policy from-L: the Weyl tensor vanishes numerically at "
            f"point {pts[80]}")

    def test_invariants_falls_back_to_the_next_policy(self, tmp_path,
                                                      monkeypatch):
        # rt4-quartic at 100 points, the operator ||L|| made zero at point
        # 70, in the third of four chunks of 32 points: from-L fails there,
        # so the first two chunks are measured again with from-C, which
        # every chunk passes.  invariants builds K with from-C, as classify
        # does, and reports what --policy from-C reports, in four chunks
        # or in one
        p = tmp_path / "rt4.mspec"
        assert main(["catalog", "export", "rt4-quartic", "--points", "100",
                     "--out", str(p)]) == 0
        pts = get_entry("rt4-quartic").points(n=100, seed=0)
        self._zero_at(monkeypatch, "l_operators", pts, [70])
        reports = []
        for chunk_bytes, policy in ((SMALL, "auto"), (WHOLE, "auto"),
                                    (SMALL, "from-C")):
            monkeypatch.setattr(curvature, "CHUNK_BYTES", chunk_bytes)
            code, data = run_cli(tmp_path, "invariants", str(p), "--which",
                                 "E,cspace,bach", "--policy", policy)
            assert code == 0
            reports.append(data)
        assert reports[0]["k_provenance"] == "from-C"
        assert reports[0] == reports[1] == reports[2]
        code, data = run_cli(tmp_path, "classify", str(p))
        assert data["k_provenance"] == "from-C"
        assert data["notes"][0].startswith("policy from-L: ||L|| = 0.000e+00")
