"""Each output check accepts a correct output and rejects a tampered one.

Run from the repository root:  python3 -m pytest bench/test_checks.py
The outputs are built here from the construction data, not by gramsep.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
from inputs import Case

HERE = os.path.dirname(os.path.abspath(__file__))


def _pairs(arr):
    return [[float(z.real), float(z.imag)] for z in np.ravel(arr)]


def _mixture_case(n=4, k=5, expect="separable_exact", seed=3):
    mat, planted = inputs.product_mixture(np.random.default_rng(seed), 2, n, k)
    case = Case("mix", 2, n, mat, expect, {"generators": (planted["phis"], planted["psis"])})
    return case, planted


def _certified_report(case, planted):
    """The certificate of sum_k w_k |phi_k psi_k><phi_k psi_k|:
    d[m, k] = conj(phi_k[m]), v[n, k] = sqrt(w_k) conj(psi_k[n])."""
    d = planted["phis"].T.conj()
    v = (planted["psis"] * np.sqrt(planted["weights"])[:, None]).T.conj()
    cert = {"k": d.shape[1], "m": case.m, "n": case.n,
            "d": [_pairs(row) for row in d], "v": [_pairs(row) for row in v]}
    return {"m": case.m, "n": case.n, "verdict": checks.SEPARABLE, "certificate": cert,
            "tolerances": {"certificate": 1e-8}, "ppt_min_eigenvalue": 0.0}


def test_certificate_accepted_and_tampering_rejected():
    case, planted = _mixture_case()
    report = _certified_report(case, planted)
    assert checks.check_verdict(case, report) == checks.SEPARABLE
    report["certificate"]["d"][1][2][0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="misses"):
        checks.check_verdict(case, report)
    del report["certificate"]
    report["certificate"] = None
    with pytest.raises(checks.CheckFailed, match="without a certificate"):
        checks.check_verdict(case, report)


def test_certificate_basis_is_applied():
    case, planted = _mixture_case(n=3, k=4)
    report = _certified_report(case, planted)
    report["certificate"]["basis_a"] = [_pairs(row) for row in np.array([[0, 1], [1, 0]])]
    with pytest.raises(checks.CheckFailed, match="misses"):
        checks.check_verdict(case, report)


def test_npt_eigenvalue_must_match():
    case = Case("werner", 2, 2, inputs.werner(0.5), "npt")
    report = {"m": 2, "n": 2, "verdict": checks.NPT, "ppt_min_eigenvalue": (1 - 1.5) / 4}
    checks.check_verdict(case, report)
    report["ppt_min_eigenvalue"] += 1e-9
    with pytest.raises(checks.CheckFailed, match="reported PT minimum"):
        checks.check_verdict(case, report)


def test_npt_verdict_on_ppt_state_rejected():
    case = Case("werner", 2, 2, inputs.werner(0.2), "pt_oracle")
    report = {"m": 2, "n": 2, "verdict": checks.NPT, "ppt_min_eigenvalue": -0.01}
    with pytest.raises(checks.CheckFailed, match="PT minimum eigenvalue is"):
        checks.check_verdict(case, report)


@pytest.mark.parametrize("expect, verdict", [
    ("separable_exact", checks.UNDECIDED),
    ("separable", checks.RANGE),
    ("npt", checks.UNDECIDED),
    ("range", checks.UNDECIDED),
    ("ppt_not_edge", checks.RANGE),
])
def test_verdict_outside_the_expected_set_rejected(expect, verdict):
    case, _ = _mixture_case(expect=expect)
    report = {"m": 2, "n": 4, "verdict": verdict, "ppt_min_eigenvalue": 0.0}
    with pytest.raises(checks.CheckFailed, match="is expected"):
        checks.check_verdict(case, report)


def test_undecided_allowed_where_nothing_is_exact():
    case, _ = _mixture_case(n=3, k=6, expect="separable")
    checks.check_verdict(case, {"m": 2, "n": 3, "verdict": checks.UNDECIDED})


def test_oracle_demands_npt_verdict_on_npt_input():
    case = Case("werner", 2, 2, inputs.werner(0.6), "pt_oracle")
    with pytest.raises(checks.CheckFailed, match="is expected"):
        checks.check_verdict(case, {"m": 2, "n": 2, "verdict": checks.UNDECIDED})


def _unit(x):
    return x / np.linalg.norm(x)


def test_planted_generators_accepted_and_tampering_rejected():
    case, planted = _mixture_case()
    hits = [(_unit(p), _unit(q)) for p, q in zip(planted["phis"], planted["psis"])]
    assert checks.check_hits(hits, case) == 5
    with pytest.raises(checks.CheckFailed, match="not found"):
        checks.check_hits(hits[:4], case)
    e, f = hits[0]
    bent = (e, _unit(f + 1e-3 * np.arange(4)))
    with pytest.raises(checks.CheckFailed, match="ker"):
        checks.check_hits([bent] + hits[1:], case)


def test_missing_root_rejected():
    case, _ = _mixture_case()
    with pytest.raises(checks.CheckFailed, match="expected >= 1"):
        checks.check_hits([], case, min_hits=1)


def test_edge_verdicts():
    hor = Case("horodecki", 2, 4, inputs.horodecki(0.5), "range", {"edge": True})
    checks.check_edge("edge", None, hor)
    with pytest.raises(checks.CheckFailed, match="edge test says"):
        checks.check_edge("not_edge", None, hor)
    sep, planted = _mixture_case()
    sep.planted["edge"] = False
    with pytest.raises(checks.CheckFailed, match="edge test says"):
        checks.check_edge("edge", None, sep)
    witness = (_unit(planted["phis"][0]), _unit(planted["psis"][0]))
    checks.check_edge("not_edge", witness, sep)
    with pytest.raises(checks.CheckFailed, match="ker"):
        checks.check_edge("not_edge", (witness[0], _unit(witness[1] + 1e-3)), sep)


def test_separable_ball_is_positive_and_inside_the_ball():
    rng = np.random.default_rng(0)
    for m, n in ((2, 3), (2, 4), (3, 3)):
        rho = inputs.separable_ball(rng, m, n, 0.95)
        d = m * n
        assert np.linalg.norm(rho - np.eye(d) / d) < 1 / np.sqrt(d * (d - 1))
        assert inputs.hermitian_eigvals(rho)[0] > 0


def test_inputs_depend_only_on_the_seed():
    import workloads
    a = workloads.screen(5)
    b = workloads.screen(5)
    c = workloads.screen(6)
    assert inputs.digest([op.case for op in a]) == inputs.digest([op.case for op in b])
    assert inputs.digest([op.case for op in a]) != inputs.digest([op.case for op in c])


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "screen",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
