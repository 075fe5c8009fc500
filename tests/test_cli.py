import json
import warnings

import numpy as np
import pytest

from sovkit import documents as docs
from sovkit import rational as R
from sovkit.cli import main
from test_elliptic import _sequential_draws
from test_flow_linearize import blowup_instance
from test_rational import fail_first_divisor_point, special_section_matpoly


def write_instance(tmp_path, phi, name="lax.json"):
    path = tmp_path / name
    path.write_text(json.dumps(docs.dump_lax(phi)))
    return str(path)


@pytest.fixture(scope="module")
def generic_instance(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inst")
    phi = R.random_instance(2, 2, np.random.default_rng(17))
    return write_instance(tmp, phi)


class TestSpectral:
    def test_valid_instance(self, generic_instance, tmp_path, capsys):
        code = main(["spectral", "--input", generic_instance,
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert doc["genus"] == 1
        assert doc["r"] == 2

    def test_random_bracket_lists_g_plus_r_minus_1_hamiltonians(self, generic_instance,
                                                                tmp_path):
        bracket = tmp_path / "bracket.json"
        spec = R.BracketSpec(a=(0.4 - 0.1j, 1.3, -0.7j), b=0.6 + 0.9j)
        bracket.write_text(json.dumps(docs.dump_bracket(spec)))
        assert main(["spectral", "--input", generic_instance, "--bracket", str(bracket),
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert len(doc["hamiltonian_index"]) == doc["genus"] + doc["r"] - 1

    def test_curve_round_trip_identical(self, generic_instance, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["spectral", "--input", generic_instance, "--out", str(out1)]) == 0
        assert main(["spectral", "--input", generic_instance, "--out", str(out2)]) == 0
        assert (out1 / "curve.json").read_bytes() == (out2 / "curve.json").read_bytes()

    def test_diagonal_instance_exits_3(self, tmp_path):
        cm = np.zeros((3, 2, 2), dtype=complex)
        cm[:, 0, 0] = [1.0, 2.0, 0.5]
        cm[:, 1, 1] = [0.3, -1.0, 0.2]
        path = write_instance(tmp_path, R.MatPoly(cm), "diag.json")
        assert main(["spectral", "--input", path, "--out", str(tmp_path)]) == 3

    def test_missing_field_exits_2(self, tmp_path, capsys):
        doc = docs.dump_lax(R.MatPoly(np.zeros((2, 2, 2))))
        del doc["n"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["spectral", "--input", str(path), "--out", str(tmp_path)]) == 2
        assert '"n"' in capsys.readouterr().err

    def test_malformed_json_exits_2_without_crash(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{this is not json")
        assert main(["spectral", "--input", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field", ["r", "n"])
    def test_bool_count_exits_2(self, tmp_path, capsys, field):
        doc = {"r": 1, "n": 0, "coeffs": [[[[1.0, 0.0]]]], field: field == "r"}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert main(["spectral", "--input", str(path), "--out", str(tmp_path)]) == 2
        assert f'"{field}"' in capsys.readouterr().err


class TestSov:
    def test_report_and_csv(self, generic_instance, tmp_path):
        code = main(["sov", "--input", generic_instance, "--out", str(tmp_path)])
        assert code == 0
        header, rows = docs.read_csv(tmp_path / "divisor.csv")
        assert header == ["mu", "z_re", "z_im", "xi_re", "xi_im"]
        assert len(rows) == 2
        rep = json.loads((tmp_path / "sov_report.json").read_text())
        assert rep["max_zxi_residual"] < 1e-4
        assert rep["max_zz_residual"] < 1e-4

    def test_empty_divisor_passes(self, tmp_path):
        # r = 1 has genus 0 and a constant section: empty table, pass status
        phi = R.MatPoly(np.array([[[1.2]], [[0.4j]], [[0.7]]]))
        path = write_instance(tmp_path, phi, "scalar.json")
        code = main(["sov", "--input", path, "--out", str(tmp_path)])
        assert code == 0
        _, rows = docs.read_csv(tmp_path / "divisor.csv")
        assert rows == []
        assert json.loads((tmp_path / "sov_report.json").read_text()) == {
            "count": 0, "degenerate": False, "diag_target": [], "max_zxi_residual": 0.0,
            "max_zz_residual": 0.0, "max_xixi_residual": 0.0}

    def test_tight_tol_scale_does_not_pass_as_empty(self, generic_instance, tmp_path,
                                                    capsys):
        # g + r - 1 = 2 points are expected; at this scale the root finder cannot
        # reach its residual target, so none validates: a typed failure, not an
        # empty success
        code = main(["sov", "--input", generic_instance, "--tol-scale", "1e-6",
                     "--out", str(tmp_path)])
        assert code == 4
        assert not (tmp_path / "sov_report.json").exists()
        assert "empty divisor" not in capsys.readouterr().out

    def test_failed_divisor_point_exits_4(self, generic_instance, tmp_path,
                                          monkeypatch, capsys):
        fail_first_divisor_point(monkeypatch)
        out = tmp_path / "out"
        code = main(["sov", "--input", generic_instance, "--out", str(out)])
        assert code == 4
        assert "1 of the 2 zeros of B are divisor points" in capsys.readouterr().err
        assert not out.exists()

    def test_special_section_exits_3(self, tmp_path, capsys):
        path = write_instance(tmp_path, special_section_matpoly(), "special.json")
        out = tmp_path / "out"
        assert main(["sov", "--input", path, "--out", str(out)]) == 3
        assert "pass another s" in capsys.readouterr().err
        assert not out.exists()

    def test_section_flag_picks_the_divisor_section(self, tmp_path, capsys):
        # e_0 is an eigenvector of the leading matrix: B drops a degree; e_1 is not
        path = write_instance(tmp_path, special_section_matpoly(), "special.json")
        assert main(["sov", "--input", path, "--out", str(tmp_path / "e0")]) == 3
        out = tmp_path / "e1"
        assert main(["sov", "--input", path, "--section", "1", "--out", str(out)]) == 0
        assert json.loads((out / "sov_report.json").read_text())["count"] == 2
        assert capsys.readouterr().out.startswith("2 divisor points")

    @pytest.mark.parametrize("section", ["2", "-1"])
    def test_section_out_of_range_exits_2(self, generic_instance, tmp_path, capsys,
                                          section):
        out = tmp_path / "out"
        assert main(["sov", "--input", generic_instance, "--section", section,
                     "--out", str(out)]) == 2
        assert "--section must be in 0 .. 1" in capsys.readouterr().err
        assert not out.exists()

    def test_quadratic_targets_are_xi(self, generic_instance, tmp_path):
        bracket = tmp_path / "bracket.json"
        bracket.write_text(json.dumps({"a": [[0.0, 0.0]], "b": [1.0, 0.0]}))
        code = main(["sov", "--input", generic_instance, "--bracket", str(bracket),
                     "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "sov_report.json").read_text())
        _, rows = docs.read_csv(tmp_path / "divisor.csv")
        for target, row in zip(rep["diag_target"], rows):
            assert abs(complex(target[0], target[1])
                       - complex(float(row[3]), float(row[4]))) < 1e-9


class TestFlow:
    def test_casimir_flow(self, generic_instance, tmp_path):
        code = main(["flow", "--input", generic_instance, "--hamiltonian", "1,0",
                     "--out", str(tmp_path), "--samples", "4", "--t-max", "0.5"])
        assert code == 0
        rep = json.loads((tmp_path / "flow_report.json").read_text())
        assert rep["casimir"] is True
        assert rep["max_drift"] < 1e-9

    def test_hamiltonian_flow(self, generic_instance, tmp_path):
        code = main(["flow", "--input", generic_instance, "--hamiltonian", "0,0",
                     "--out", str(tmp_path), "--samples", "5"])
        assert code == 0
        rep = json.loads((tmp_path / "flow_report.json").read_text())
        assert rep["casimir"] is False
        assert rep["max_drift"] < 1e-8
        assert all(v < 1e-5 for v in rep["fit_residuals"].values())
        header, rows = docs.read_csv(tmp_path / "flow.csv")
        assert header[:2] == ["t", "spectral_drift"]
        assert len(rows) == 5

    def test_flow_leaving_the_finite_range_exits_4(self, tmp_path, capsys):
        # a state that overflows mid-flow is the numeric guard, not a schema error
        path = write_instance(tmp_path, blowup_instance())
        bracket = tmp_path / "bracket.json"
        bracket.write_text(json.dumps(docs.dump_bracket(R.BracketSpec(a=(0.0,), b=1.0))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["flow", "--input", path, "--bracket", str(bracket), "--hamiltonian",
                         "1,0", "--t-max", "50", "--out", str(tmp_path)]) == 4
        assert "numeric guard" in capsys.readouterr().err

    def test_bad_hamiltonian_flag(self, generic_instance, tmp_path):
        assert main(["flow", "--input", generic_instance, "--hamiltonian", "xx",
                     "--out", str(tmp_path)]) == 2


class TestTolScale:
    def test_flow_report_follows_tol_scale(self, generic_instance, tmp_path):
        # a tighter ODE tolerance shows up as a smaller isospectral drift
        drift = {}
        for scale in ("1", "1e-3"):
            out = tmp_path / scale
            assert main(["flow", "--input", generic_instance, "--hamiltonian", "0,0",
                         "--samples", "5", "--tol-scale", scale, "--out", str(out)]) == 0
            drift[scale] = json.loads((out / "flow_report.json").read_text())["max_drift"]
        assert drift["1e-3"] < 1e-2 * drift["1"]

    def test_unreachable_tol_scale_exits_4(self, generic_instance, tmp_path):
        # root residuals cannot reach 1e-24: a typed numeric-guard exit, no crash
        assert main(["spectral", "--input", generic_instance, "--out", str(tmp_path)]) == 0
        assert main(["spectral", "--input", generic_instance, "--tol-scale", "1e-12",
                     "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("argv", [
    ["accept", "--tol-scale", "inf"],
    ["accept", "--tol-scale", "0"],
    ["spectral", "--tol-scale", "nan"],
    ["spectral", "--tol-scale", "-1"],
    ["flow", "--hamiltonian", "0,0", "--t-max", "nan"],
    ["flow", "--hamiltonian", "0,0", "--t-max", "inf"],
    ["flow", "--hamiltonian", "0,0", "--t-max", "0"],
    ["flow", "--hamiltonian", "0,0", "--samples", "1"],
    ["flow", "--hamiltonian", "0,0", "--samples", "2"],
    ["accept", "--workers", "-3"],
    ["accept", "--workers", "0"],
])
def test_out_of_range_flag_exits_2(generic_instance, tmp_path, capsys, argv):
    # checked at parse time: nothing runs and nothing is written
    flag = argv[-2]
    if argv[0] != "accept":
        argv = argv + ["--input", generic_instance]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestThetaCmd:
    def test_battery(self, tmp_path):
        code = main(["theta", "--rank", "2", "--tau-im", "1.0",
                     "--out", str(tmp_path)])
        assert code == 0
        header, rows = docs.read_csv(tmp_path / "theta_report.csv")
        assert header == ["relation", "residual", "tolerance"]
        assert {r[0] for r in rows} >= {"theta_zero", "period_relations"}

    def test_degenerate_tau_exits_4(self, tmp_path):
        assert main(["theta", "--rank", "2", "--tau-im", "0.01",
                     "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("flags, flag", [
        (["--tau-im", "-1"], "--tau-im"),
        (["--tau-im", "0"], "--tau-im"),
        (["--tau-im", "nan"], "--tau-im"),
        (["--tau-im", "1", "--tau-re", "inf"], "--tau-re"),
        (["--tau-im", "1", "--tau-re", "nan"], "--tau-re"),
        (["--tau-im", "1", "--rank", "0"], "--rank"),
        (["--tau-im", "1", "--rank", "1.5"], "--rank"),
    ])
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, flags, flag):
        # checked at parse time: nothing runs and nothing is written
        out = tmp_path / "out"
        assert main(["theta", "--rank", "2"] + flags + ["--out", str(out)]) == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()


def _write_elliptic_doc(tmp_path):
    rng = np.random.default_rng(3)
    tau = 0.15 + 1.05j
    nu = (rng.uniform(0.15, 0.85) + rng.uniform(0.15, 0.85) * tau) / 2
    doc = {
        "tau": [tau.real, tau.imag],
        "r": 2,
        "divisor": [{"nu": [nu.real, nu.imag], "mult": 1}],
        "coeffs": [
            {"a": a, "b": b,
             "values": [[float(rng.standard_normal()), float(rng.standard_normal())]]}
            for a in range(2) for b in range(2)
        ],
        "z0": [0.0, 0.0],
    }
    path = tmp_path / "elliptic.json"
    path.write_text(json.dumps(doc))
    return path


class TestElliptic:
    def test_pipeline(self, tmp_path):
        path = _write_elliptic_doc(tmp_path)
        code = main(["elliptic", "--input", str(path), "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "elliptic_report.json").read_text())
        assert rep["validated_count"] == rep["genus_prediction"]
        header, rows = docs.read_csv(tmp_path / "elliptic_divisor.csv")
        assert header == ["mu", "z_re", "z_im", "xi_re", "xi_im", "sheet"]
        assert len(rows) == rep["validated_count"]

    def test_branch_point_near_a_pole(self, tmp_path):
        # the r = 2, n = 2 draw with a branch point 5e-3 from a divisor point
        lax = _sequential_draws(2, 35)[1]
        pair = lambda w: [w.real, w.imag]
        doc = {"tau": pair(lax.params.tau), "r": 2,
               "divisor": [{"nu": pair(p), "mult": 1} for p in lax.divisor.points],
               "coeffs": [{"a": a, "b": b, "values": [pair(c) for c in cs]}
                          for (a, b), cs in lax.coeffs.items()],
               "z0": [0.0, 0.0]}
        path = tmp_path / "elliptic.json"
        path.write_text(json.dumps(doc))
        assert main(["elliptic", "--input", str(path), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "elliptic_report.json").read_text())
        assert (rep["validated_count"], rep["branch_points"], rep["genus_prediction"]) == (3, 4, 3)

    def test_rank_one_has_no_points(self, tmp_path):
        # r = 1: B = s has no zero and the discriminant none, so the cells
        # are searched with the zeroth moment alone
        doc = {"tau": [0.1, 1.0], "r": 1, "divisor": [{"nu": [0.3, 0.4]}],
               "coeffs": [{"a": 0, "b": 0, "values": [[1.0, 0.5]]}]}
        path = tmp_path / "elliptic.json"
        path.write_text(json.dumps(doc))
        assert main(["elliptic", "--input", str(path), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "elliptic_report.json").read_text())
        assert (rep["validated_count"], rep["branch_points"], rep["genus_prediction"]) == (0, 0, 1)
        assert docs.read_csv(tmp_path / "elliptic_divisor.csv")[1] == []

    @pytest.mark.parametrize("a, b", [(0.5, 1.9), (True, 0), (0, 1)])
    def test_bad_character_index_exits_2(self, tmp_path, a, b):
        # a non-integer or bool index, or a repeat of the character (0, 1)
        path = _write_elliptic_doc(tmp_path)
        doc = json.loads(path.read_text())
        doc["coeffs"][0].update(a=a, b=b)
        path.write_text(json.dumps(doc))
        assert main(["elliptic", "--input", str(path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "elliptic_report.json").exists()

    @pytest.mark.parametrize("field", ["r", "mult"])
    def test_bool_count_exits_2(self, tmp_path, field):
        path = _write_elliptic_doc(tmp_path)
        doc = json.loads(path.read_text())
        (doc if field == "r" else doc["divisor"][0])[field] = True
        path.write_text(json.dumps(doc))
        assert main(["elliptic", "--input", str(path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "elliptic_report.json").exists()

    def test_seed_flag_rejected(self, generic_instance, tmp_path):
        # elliptic extraction, the spectral split and flows draw no random
        # numbers, so a seed would do nothing
        path = _write_elliptic_doc(tmp_path)
        assert main(["elliptic", "--input", str(path), "--seed", "3",
                     "--out", str(tmp_path)]) == 2
        assert main(["spectral", "--input", generic_instance, "--seed", "3",
                     "--out", str(tmp_path)]) == 2
        assert main(["flow", "--input", generic_instance, "--hamiltonian", "0,0",
                     "--seed", "3", "--out", str(tmp_path)]) == 2
        assert main(["sov", "--input", generic_instance, "--seed", "3",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "curve.json").exists()
        assert not (tmp_path / "flow_report.json").exists()
        assert not (tmp_path / "sov_report.json").exists()

    def test_tighter_tol_scale_is_reachable(self, tmp_path):
        # the divisor residuals (about 1e-15) meet 1e-11; the moment
        # quadrature keeps its own tolerance
        path = _write_elliptic_doc(tmp_path)
        assert main(["elliptic", "--input", str(path), "--tol-scale", "1e-2",
                     "--out", str(tmp_path)]) == 0

    def test_unreachable_tol_scale_exits_4(self, tmp_path):
        # the divisor residuals cannot reach 1e-21: a typed numeric-guard exit
        path = _write_elliptic_doc(tmp_path)
        assert main(["elliptic", "--input", str(path), "--tol-scale", "1e-12",
                     "--out", str(tmp_path)]) == 4


class TestAccept:
    def test_determinism_and_failure_flagging(self, tmp_path):
        # identical config + seed: byte-identical reports minus the timestamp
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            code = main(["accept", "--suites", "jacobi,genus_counts",
                         "--seed", "7", "--out", str(out)])
            assert code == 0
            doc = json.loads((out / "acceptance_report.json").read_text())
            doc.pop("generated_at")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_tightened_tolerance_fails_cleanly(self, tmp_path):
        # tightening the FD-based tolerances far enough produces expected
        # failures that are flagged with exit 1, never a crash
        code = main(["accept", "--suites", "canonical", "--tol-scale", "1e-8",
                     "--seed", "7", "--out", str(tmp_path)])
        assert code == 1
        doc = json.loads((tmp_path / "acceptance_report.json").read_text())
        assert doc["overall_passed"] is False

    def test_unknown_suite_rejected(self, tmp_path):
        code = main(["accept", "--suites", "nonsense", "--out", str(tmp_path)])
        assert code != 0

    def test_workers_do_not_change_results(self, tmp_path):
        bodies = []
        for workers, sub in ((1, "w1"), (2, "w2")):
            out = tmp_path / sub
            code = main(["accept", "--suites", "jacobi,involution",
                         "--seed", "5", "--workers", str(workers),
                         "--out", str(out)])
            assert code == 0
            doc = json.loads((out / "acceptance_report.json").read_text())
            doc.pop("generated_at")
            doc["config"].pop("workers")
            bodies.append(json.dumps(doc, sort_keys=True))
        assert bodies[0] == bodies[1]
