import importlib.util
from pathlib import Path

import pytest

from sovkit import acceptance
from sovkit.acceptance import CheckResult
from sovkit.errors import ConsistencyError

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_of_canonical(sweep, capsys):
    assert sweep.main(["--seeds", "1", "--suites", "canonical"]) == 0
    header, row, last = capsys.readouterr().out.splitlines()
    name, worst, gate, failing = row.split()
    assert (name, gate, failing, last) == ("canonical", "1e-09", "-", "failing seeds: none")
    assert 0.0 < float(worst) < 1e-9


def test_one_seed_of_theta_and_elliptic(sweep, capsys):
    assert sweep.main(["--seeds", "1", "--suites", "theta,elliptic"]) == 0
    header, *rows, last = capsys.readouterr().out.splitlines()
    assert last == "failing seeds: none"
    families = {row.split()[0]: row.split()[1:] for row in rows}
    assert {"theta_roots", "elliptic_count", "elliptic_quasiperiodicity"} <= set(families)
    for worst, gate, failing in families.values():
        assert failing == "-" and float(worst) <= float(gate)


@pytest.mark.parametrize("check,family", [
    ("isospectral_r4_n1", "isospectral"), ("canonical_n2_mixed", "canonical"),
    ("theta_period_r2_tauc", "theta_period"), ("slopes_r3_n1_quadratic", "slopes"),
    ("linearization_path_independence", "linearization_path_independence"),
])
def test_families(sweep, check, family):
    assert sweep.TAGS.sub("", check) == family


def test_failures_and_aborts_are_listed(sweep, monkeypatch, capsys):
    def fake(config):  # fails its gate at seed 2, aborts at seed 3
        if config.seed == 3:
            raise ConsistencyError("injected")
        residual = 1e-3 if config.seed == 2 else 1e-12
        return [CheckResult.from_residual(f"fake_r2_n{k}", residual * k, 1e-6) for k in (1, 2)]

    monkeypatch.setitem(acceptance.SUITES, "fake", fake)
    assert sweep.main(["--seeds", "1-3", "--suites", "fake"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{'fake':<32} {2e-3:9.1e} {1e-6:9.0e}  2",
        "abort: seed 3 fake: ConsistencyError: injected",
        "failing seeds: 2, 3",
    ]


def test_a_nan_residual_is_the_worst(sweep, monkeypatch, capsys):
    def fake(config):  # NaN at seed 2, between finite residuals larger and smaller
        residual = float("nan") if config.seed == 2 else 1e-9 * config.seed
        return [CheckResult.from_residual("fake_r2_n1", residual, 1e-6)]

    monkeypatch.setitem(acceptance.SUITES, "fake", fake)
    assert sweep.main(["--seeds", "1-3", "--suites", "fake"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{'fake':<32} {'nan':>9} {1e-6:9.0e}  2",
        "failing seeds: 2",
    ]
