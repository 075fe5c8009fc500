import json

import numpy as np
import pytest

from sovkit import documents as docs
from sovkit import rational as R
from sovkit.cli import main


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

    def test_unreachable_tol_scale_exits_4(self, tmp_path):
        # divisor residuals cannot reach 1e-20: the first converged Newton
        # point ends the extraction with a typed numeric-guard exit
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
