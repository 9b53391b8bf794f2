"""CLI subcommands, report invariants and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gramsep import cli, densmat, sep, states

import fixtures


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, rho):
    path = tmp_path / name
    path.write_text(json.dumps(densmat.state_to_json_dict(rho)))
    return str(path)


def test_gen_and_analyze_separable_werner(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "werner", "--p", "0.2",
                           "-o", str(tmp_path / "w.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "w.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "separable_certified"
    assert rep["terms"] <= 4
    assert rep["solver"]["starts"] == 1
    assert isinstance(rep["solver"]["nfev"], int) and rep["solver"]["nfev"] >= 1
    assert rep["residuals"]["certificate"] <= 1e-8
    # the embedded certificate is self-verifying
    cert = sep.certificate_from_json_dict(rep["certificate"])
    check = sep.verify_certificate(cert, states.werner(0.2), tol=1e-8)
    assert check.passed


def test_analyze_npt_werner(tmp_path, capsys):
    path = write_state(tmp_path, "w5.json", states.werner(0.5))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "entangled_npt"
    assert rep["ppt"] is False
    assert abs(rep["ppt_min_eigenvalue"] + 0.125) < 1e-10
    assert rep["certificate"] is None


def test_analyze_horodecki_range_verdict(tmp_path, capsys):
    path = write_state(tmp_path, "h.json", states.horodecki97(0.5))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "entangled_range"
    assert rep["case"] == "(5,5)"
    assert rep["solver"]["accepted"] is False


def test_analyze_pure_product(tmp_path, capsys):
    rho, _ = states.random_separable(2, 4, 1, seed=8)
    path = write_state(tmp_path, "p.json", rho)
    code, out, _ = run_cli(capsys, "analyze", path)
    rep = json.loads(out)
    assert rep["verdict"] == "separable_certified"
    assert rep["terms"] == 1


def test_analyze_singular_block_fallbacks():
    # A side concentrated on |0>: the lower-right block vanishes and the
    # pipeline canonicalizes the A-swapped state instead
    psis = np.array([[1, 0], [0.6, 0.8]], dtype=complex) / np.sqrt(2)
    phis = np.array([[1, 0], [1, 0]], dtype=complex)
    sd = sep.SeparableDecomposition(2, 2, phis, psis)
    rho = densmat.validate_density(sd.density() / np.trace(sd.density()).real, 2, 2)
    rep = cli.analyze_state(rho)
    assert rep["verdict"] == "separable_certified"
    assert rep["residuals"]["certificate"] < 1e-10

    # B side supported on a 2-dim subspace of C^3: deflate, solve, lift back
    rng = np.random.default_rng(3)
    phis = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    psis2 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    iso = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))[0]
    sd = sep.SeparableDecomposition(2, 3, phis, psis2 @ iso.T)
    rho = densmat.validate_density(sd.density() / np.trace(sd.density()).real, 2, 3)
    rep = cli.analyze_state(rho)
    assert rep["verdict"] == "separable_certified"
    assert rep["residuals"]["certificate"] < 1e-10


def test_analyze_byte_identical(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.25))
    _, out1, _ = run_cli(capsys, "analyze", path, "--seed", "7")
    _, out2, _ = run_cli(capsys, "analyze", path, "--seed", "7")
    assert out1 == out2


def test_analyze_56_byte_identical_in_process():
    rho, _ = fixtures.separable_56(1)
    first, second = (json.dumps(cli.analyze_state(rho), sort_keys=True, default=float)
                     for _ in range(2))
    assert json.loads(first)["solver"]["method"] == "alpha_beta_grid"
    assert json.loads(first)["verdict"] == "separable_certified"
    assert first == second


def test_analyze_survives_a_long_descent_with_vanishing_damping():
    """A (5,6) Horodecki range mixture, built from ``bench/inputs.py``
    (``ppt-2x4`` seed 1202, ``range-mix#9``).  From the scan's best cell the
    descent heads for a nonzero minimum, and the stall stop ends it within
    a few dozen evaluations, once |f|^2 has all but stopped falling; the
    state stays undecided.  Without the stall stop it would run to the
    4,000-evaluation cap on the damping floor, which
    ``test_twoxn.py::test_descend_survives_a_vanishing_damping`` covers."""
    path = Path(__file__).with_name("range_mix_1202_9.json")
    rho = densmat.state_from_json_dict(json.loads(path.read_text()))
    report = cli.analyze_state(rho)
    assert report["verdict"] == "ppt_undecided"
    assert report["case"] == "(5,6)"
    assert np.isfinite(report["solver"]["normality_residual"])
    assert report["solver"]["nfev"] <= 100


def test_tol_before_or_after_subcommand(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.2))
    for argv in (("--tol", "1e-3", "analyze", path), ("analyze", path, "--tol", "1e-3")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["tolerances"]["validation"] == 1e-3


def test_tol_covers_hermiticity_of_analyze_and_provec(tmp_path, capsys):
    # a relative Hermitian deviation of 1e-7, accepted at --tol 1e-6
    mat = states.werner(0.2).mat.copy()
    mat[0, 1] += 3e-8
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "data": densmat.matrix_to_lists(mat)}))
    code, out, _ = run_cli(capsys, "--tol", "1e-6", "analyze", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] in ("separable_certified", "ppt_undecided")
    code, out, _ = run_cli(capsys, "--tol", "1e-6", "provec", str(path))
    assert code == 0
    assert json.loads(out)["case"] == "(4,4)"


def test_canonical_fallbacks_revalidate_at_state_tol():
    # the A-swap (2x2) and the B-support deflation (2x3, after the swap)
    # rebuild states that carry the input's Hermitian deviation of 1e-7
    for n, diag in ((2, [0.25, 0.25, 0.5, 0.0]), (3, [0.2, 0.3, 0.0, 0.5, 0.0, 0.0])):
        mat = np.diag(diag).astype(complex)
        mat[0, 1] += 5e-8
        rho = densmat.validate_density(mat, 2, n, tol=1e-6)
        rep = cli.analyze_state(rho, tol=1e-6)
        assert rep["verdict"] in ("separable_certified", "ppt_undecided")


def test_analyze_strict_flag(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.1))
    code, out, _ = run_cli(capsys, "analyze", path, "--strict")
    assert code == 0
    assert json.loads(out)["verdict"] == "separable_certified"


def test_gram_subcommand(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.2))
    code, out, _ = run_cli(capsys, "gram", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 4
    vec = np.array(payload["vectors"]["0,0"])
    w = vec[:, 0] + 1j * vec[:, 1]
    # Gram identity against the state itself
    rho = states.werner(0.2)
    vecs = {key: np.array(val)[:, 0] + 1j * np.array(val)[:, 1]
            for key, val in payload["vectors"].items()}
    for (i, j) in [((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 0), (1, 1))]:
        lhs = np.vdot(vecs[f"{i[0]},{i[1]}"], vecs[f"{j[0]},{j[1]}"])
        assert abs(lhs - rho.mat[i[0] * 2 + i[1], j[0] * 2 + j[1]]) < 1e-10
    assert abs(np.linalg.norm(w) ** 2 - rho.mat[0, 0]) < 1e-12


def test_canonical_subcommand(tmp_path, capsys):
    path = write_state(tmp_path, "h.json", states.horodecki97(0.5))
    code, out, _ = run_cli(capsys, "canonical", path)
    assert code == 0
    payload = json.loads(out)
    b = np.array(payload["b"])[:, :, 0] + 1j * np.array(payload["b"])[:, :, 1]
    bmat, _, _ = states.horodecki97_blocks(0.5)
    assert np.abs(b - bmat).max() < 1e-10
    assert payload["p"] == 1 and payload["p_tilde"] == 1 and payload["ppt"]


def test_provec_subcommand(tmp_path, capsys):
    rho, _ = states.random_separable(2, 4, 5, seed=42)
    path = write_state(tmp_path, "s.json", rho)
    code, out, _ = run_cli(capsys, "provec", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "(5,5)"
    assert len(payload["hits"]) == 5
    worst = max(max(h["residuals"].values()) for h in payload["hits"])
    assert worst <= 1e-8


def test_provec_subcommand_degenerate(tmp_path, capsys):
    path = write_state(tmp_path, "h1.json", states.horodecki97(1.0))
    code, out, _ = run_cli(capsys, "provec", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["degenerate"] == "continuum"


def test_ffcnm_verify_subcommand(tmp_path, capsys):
    rho, sd = states.random_separable(2, 3, 5, seed=2)
    cert = sep.decomposition_to_certificate(sd)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(sep.certificate_to_json_dict(cert)))
    state_path = write_state(tmp_path, "s.json", rho)
    code, out, _ = run_cli(capsys, "ffcnm-verify", str(cert_path), state_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["family"]["normality"] < 1e-9


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/state.json")
    assert code == 1
    assert "input error" in err


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1


def test_invalid_state_exit_code(tmp_path, capsys):
    payload = {"m": 2, "n": 2, "data": densmat.matrix_to_lists(np.eye(4))}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1  # trace is 4, not 1


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, "w.json", states.werner(0.2))

    def boom(*args, **kwargs):
        raise cli.NumericalFailure("synthetic")

    monkeypatch.setattr(cli, "analyze_state", boom)
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 2
    assert "numerical failure" in err


def test_negative_seed_and_budget_below_one_are_usage_errors(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.2))
    for argv in (["analyze", path, "--seed", "-1"],
                 ["analyze", path, "--budget", "0"],
                 ["analyze", path, "--budget", "-3"],
                 ["gen", "random-separable", "--m", "2", "--n", "2", "--k", "2", "--seed", "-1"],
                 ["gen", "random", "--m", "2", "--n", "3", "--r", "4", "--seed", "-1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "analyze", path, "--seed", "0", "--budget", "1")
    assert code == 0
    assert json.loads(out)["solver"]["starts"] == 1


def test_tol_must_be_finite_and_positive(tmp_path, capsys):
    """A NaN tolerance fails every comparison, which made a separable Werner
    state read as NPT; a negative one failed as "not Hermitian".  Both, and
    inf and 0, are usage errors before or after the subcommand."""
    path = write_state(tmp_path, "w.json", states.werner(0.2))
    for tol in ("nan", "inf", "-1", "0"):
        for argv in (["--tol", tol, "analyze", path], ["analyze", path, "--tol", tol]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "must be finite and above 0" in capsys.readouterr().err
    for argv in (("--tol", "1e-7", "analyze", path), ("analyze", path, "--tol", "1e-7")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rep = json.loads(out)
        assert rep["tolerances"]["validation"] == 1e-7
        assert rep["ppt"] and rep["verdict"] == "separable_certified"


def test_gen_random_deterministic(tmp_path, capsys):
    _, out1, _ = run_cli(capsys, "gen", "random", "--m", "2", "--n", "3",
                         "--r", "4", "--seed", "11")
    _, out2, _ = run_cli(capsys, "gen", "random", "--m", "2", "--n", "3",
                         "--r", "4", "--seed", "11")
    assert out1 == out2
    rho = densmat.state_from_json_dict(json.loads(out1))
    assert rho.dim_b == 3


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the completion descents and the continuum witness search are numpy,
    # so neither the import nor a solver analysis loads scipy, which would
    # be most of the start-up time of a one-shot CLI call
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        "import fixtures",
        "from gramsep import cli, states",
        "general = cli.analyze_state(states.random_separable(2, 3, 5, seed=1)[0])",
        "grid = cli.analyze_state(fixtures.separable_56(1)[0])",
        "print(general['solver']['method'], grid['solver']['method'])",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines() == ["multistart_lm alpha_beta_grid", "[]"]
