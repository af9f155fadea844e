import json
import subprocess
import sys

import numpy as np
import pytest

from confein import cli, curvature
from confein.obstructions import Verdict
from confein.catalog import get_entry
from confein.cli import main
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

    def test_classify_compiles_the_ladder_once(self, tmp_path, monkeypatch):
        p = tmp_path / "schw.mspec"
        assert main(["catalog", "export", "schwarzschild4", "--out",
                     str(p)]) == 0
        compiles, loads = [], []
        compile_batch = curvature.compile_batch
        init = curvature.CurvatureSamples.__init__

        def counting_compile(exprs):
            compiles.append(len(exprs))
            return compile_batch(exprs)

        def counting_init(self, pack, pts, stage="full"):
            loads.append([dict(q) for q in pts])
            init(self, pack, pts, stage)

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
        # the verdict's points are evaluated once; the other loads are the
        # potential's segments, one batch of quadrature nodes per target
        assert sum(pts == data["points"] for pts in loads) == 1
        assert len(loads) == len(data["points"])

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

    def test_input_error_exit_three(self, tmp_path):
        p = tmp_path / "bad.mspec"
        p.write_text("dim = 4\ncoords = a, b\n")
        assert main(["classify", str(p)]) == 3
        assert main(["classify", str(tmp_path / "missing.mspec")]) == 3

    def test_bad_tolerance_exit_three(self, tmp_path, schw_file):
        assert main(["classify", str(schw_file), "--tol-rel", "-1"]) == 3

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

    def test_invariants_outside_their_dimension_rejected(self, tmp_path,
                                                         rt_file, capsys):
        p = tmp_path / "cc3.mspec"
        assert main(["catalog", "export", "constant-curvature3",
                     "--out", str(p)]) == 0
        for name in ("F1", "F2", "G", "Gbar", "dim4"):
            assert main(["invariants", str(p), "--which", name]) == 3, name
        assert main(["invariants", str(rt_file), "--which", "E,dim4"]) == 3
        assert "not defined in dimension 5" in capsys.readouterr().err

    def test_internal_fault_exit_four(self, tmp_path, schw_file, monkeypatch,
                                      capsys):
        # a ValueError inside the pipeline is no input error
        def fault(self, points, stage="full"):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(curvature.CurvaturePack, "samples", fault)
        assert main(["classify", str(schw_file)]) == 4
        assert capsys.readouterr().err.startswith("internal error: ValueError")

    def test_input_errors_outside_the_readers_exit_three(self, tmp_path,
                                                         schw_file):
        # typed errors name the input wherever they are raised
        assert main(["tractor", str(schw_file), "--sigma", "1 + y"]) == 3
        assert main(["tractor", str(schw_file), "--sigma", "x1 - x1"]) == 3
        assert main(["tractor", str(schw_file), "--sigma", "1 +"]) == 3
        assert main(["invariants", str(schw_file), "--upsilon", "log("]) == 3
        assert main(["catalog", "export", "no-such-entry"]) == 3

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
        real = cli.conformal_einstein_tensor_verdict

        def conflicting(*args, **kwargs):
            rep = real(*args, **kwargs)
            rep.verdicts.append(Verdict(
                "internal-consistency", "conflict", "generic",
                "the E and F routes disagree beyond tolerance"))
            return rep

        monkeypatch.setattr(cli, "conformal_einstein_tensor_verdict",
                            conflicting)
        code, data = run_cli(tmp_path, "classify", str(rt_file))
        assert data["rank_test"]["outcome"] == "not"
        assert data["verdict"] == "conflict"
        assert code == 2

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

    def test_tractor_command(self, tmp_path, schw_file, rt_file):
        code, data = run_cli(tmp_path, "tractor", str(schw_file),
                             "--sigma", "1")
        assert code == 0 and data["einstein_scale"] is True
        code, data = run_cli(tmp_path, "tractor", str(rt_file),
                             "--sigma", "1")
        assert code == 1 and data["einstein_scale"] is False

    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "schwarzschild4" in out and "hyperkahler4" in out

    def test_console_entry_point(self, schw_file):
        r = subprocess.run([sys.executable, "-m", "confein.cli", "identities",
                            str(schw_file), "--points", "3"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert json.loads(r.stdout)["identities"]
