"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line."""

import json
from functools import cached_property

import numpy as np

from sovkit import elliptic as ell
from sovkit import rational
from sovkit.acceptance import GATES, SUITES, TAGS, ExperimentConfig, run_acceptance
from sovkit.cli import main

CONFIG = ExperimentConfig(seed=2024)


def _run_and_report(criterion, suite_name):
    results = SUITES[suite_name](CONFIG)
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} criterion-{criterion} {check.name}: "
              f"residual {check.residual:.3e} (tolerance {check.tolerance:.1e})")
    failing = [c.name for c in results if not c.passed]
    assert not failing, f"criterion {criterion} failing checks: {failing}"
    return results


class TestAcceptanceCriteria:
    def test_criterion_1_involution(self):
        # 20 seeded instances per (r, n), all spectral pairs, 5 random (a, b)
        _run_and_report(1, "involution")

    def test_criterion_2_jacobi(self):
        _run_and_report(2, "jacobi")

    def test_criterion_3_isospectrality(self):
        _run_and_report(3, "isospectral")

    def test_criterion_4_canonical_divisor_brackets(self):
        _run_and_report(4, "canonical")

    def test_criterion_5_linearization(self):
        _run_and_report(5, "linearization")

    def test_criterion_6_genus_and_counts(self):
        results = _run_and_report(6, "genus_counts")
        counts = {c.name: c.details["divisor_count"] for c in results}
        # recorded empirical counts: g + r - 1 at each working (r, n)
        assert counts == {"genus_count_r2_n2": 2, "genus_count_r2_n3": 3,
                          "genus_count_r3_n1": 3, "genus_count_r4_n1": 6}

    def test_criterion_7_theta_relations(self):
        _run_and_report(7, "theta")

    def test_criterion_8_elliptic_engine(self):
        results = _run_and_report(8, "elliptic")
        counts = {c.name: c.details for c in results
                  if c.name.startswith("elliptic_count")}
        # recorded empirical counts at seed 2024
        assert counts == {
            "elliptic_count_n1": {"validated": 2, "branch_points": 2,
                                  "genus_prediction": 2},
            "elliptic_count_n2": {"validated": 3, "branch_points": 4,
                                  "genus_prediction": 3}}

    def test_elliptic_builds_the_forms_once_per_lax_matrix(self, monkeypatch):
        # the invariants are built before the probe loop: one form read-off
        # for each of the suite's two Lax matrices, not one per probe
        built, forms = [], ell.EllipticLax._invariant_forms.func
        counted = cached_property(lambda lax: built.append(lax) or forms(lax))
        counted.__set_name__(ell.EllipticLax, "_invariant_forms")
        monkeypatch.setattr(ell.EllipticLax, "_invariant_forms", counted)
        SUITES["elliptic"](CONFIG)
        assert len(built) == 2

    def test_elliptic_seed_5_points(self, monkeypatch):
        # the n=2 draw at seed 5 continues the section past double zeros of
        # f_j; a step that straddled one would flip a section component and
        # move the points.  The reference points come from an independent
        # method: a grid-seeded 2-D Newton sweep on (det(phi - xi I), the
        # first component of adj(phi - xi I) s)
        reports = []
        extract = ell.elliptic_divisor_coords

        def recorded(*args, **kwargs):
            reports.append(extract(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(ell, "elliptic_divisor_coords", recorded)
        results = SUITES["elliptic"](ExperimentConfig(seed=5))
        assert all(c.passed for c in results)
        z = [0.1219466121518765 + 0.3597253717872776j,
             0.22194831334374485 + 0.22160576928067932j,
             0.4866676548002034 + 0.2207600735368323j]
        xi = [-37.59725480066539 + 35.78535779436194j,
              -2.0262251350378184 - 2.524059191702619j,
              -1.6171548739425516 - 3.7299175673395677j]
        points = reports[-1].points
        assert [p.sheet for p in points] == [0, 0, 1]
        assert max(abs(p.z - w) for p, w in zip(points, z)) < 1e-12
        assert max(abs(p.xi - w) / max(1.0, abs(w)) for p, w in zip(points, xi)) < 1e-12

    def test_criterion_9_determinism_and_robustness(self, tmp_path):
        # same seed twice: byte-identical report body (minus timestamp)
        bodies = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            code = main(["accept", "--suites", "jacobi,genus_counts",
                         "--seed", "11", "--out", str(out)])
            assert code == 0
            doc = json.loads((out / "acceptance_report.json").read_text())
            doc.pop("generated_at")
            bodies.append(json.dumps(doc, sort_keys=True))
        identical = bodies[0] == bodies[1]

        # malformed inputs: documented exit codes, never a crash
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        schema_code = main(["spectral", "--input", str(bad), "--out", str(tmp_path)])
        missing_code = main(["sov", "--input", str(tmp_path / "absent.json"),
                             "--out", str(tmp_path)])
        guard_code = main(["theta", "--rank", "2", "--tau-im", "0.02",
                           "--out", str(tmp_path)])
        ok = identical and schema_code == 2 and missing_code == 2 and guard_code == 4
        status = "PASS" if ok else "FAIL"
        print(f"{status} criterion-9 determinism_and_robustness: "
              f"identical={identical} exits=({schema_code},{missing_code},{guard_code})")
        assert ok


def test_tol_scale_multiplies_every_gate():
    report = run_acceptance(ExperimentConfig(suites=("theta", "canonical"), tol_scale=2.0))
    for check in report.records:
        assert check.tolerance == 2 * GATES[TAGS.sub("", check.name)], check.name
    assert {TAGS.sub("", check.name) for check in report.records} == {
        "canonical", "theta_zero", "theta_relations", "theta_period", "theta_roots"}


def test_lenard_catches_a_scaled_b_part(monkeypatch):
    # a fault that leaves every bracket in the family: _lax_field's b part scaled by
    # 1 + 1e-6.  Every lenard check fails; the isospectral checks, which flow the
    # linear bracket's fields only, still pass
    lax = rational._lax_field
    monkeypatch.setattr(rational, "_lax_field", lambda x, g, a, b: lax(x, g, a, b * (1 + 1e-6)))
    results = SUITES["isospectral"](CONFIG)
    assert [c.passed for c in results] == [not c.name.startswith("lenard") for c in results]
    assert min(c.residual for c in results if c.name.startswith("lenard")) > 1e-7


def test_involution_catches_a_stray_term_in_pi(monkeypatch):
    # Pi plus 1e-7 max|Pi| times a fixed antisymmetric matrix: still antisymmetric,
    # but the spectral invariants no longer commute: every involution check fails,
    # at readings of about 1e-7 that a gate of 1e-6 would pass
    poisson = rational._poisson

    def mutated(phi, spec):
        pi = poisson(phi, spec)
        W = np.random.default_rng(0).standard_normal(pi.shape)
        return pi + 1e-7 * np.abs(pi).max() * (W - W.T)

    monkeypatch.setattr(rational, "_poisson", mutated)
    results = SUITES["involution"](CONFIG)
    assert len(results) == 4 and not any(c.passed for c in results)
