"""Independent checks of the program's outputs.

Every check recomputes what it needs from the input matrix with plain numpy
and raises :class:`CheckFailed` when the output is wrong.  Expectation
classes (``Case.expect``):

``separable``        separable by construction; never ``entangled_*``
``separable_exact``  separable, and on a path the program decides exactly
                     (rank N, self-transpose, (5,5), pure product, b = 1):
                     must be ``separable_certified``
``npt``              partial transpose has a negative eigenvalue: must be
                     ``entangled_npt``
``pt_oracle``        2x2 or 2x3, where PPT is equivalent to separability:
                     NPT -> ``entangled_npt``, PPT -> certified or undecided
``range``            Horodecki b < 1: must be ``entangled_range``
``ppt_not_edge``     PPT and entangled-or-unknown, with a known product
                     vector in the range whose partner is in the PT range,
                     so the range criterion cannot apply: certified or
                     undecided
``ppt_unknown``      PPT, separability unknown: certified, undecided or
                     ``entangled_range``

``ppt_undecided`` is never a failure outside ``npt``, ``range``,
``separable_exact`` and the NPT half of ``pt_oracle``.  A certified verdict is
accepted only when its certificate rebuilds the state.
"""

from __future__ import annotations

import numpy as np

from inputs import Case, kernel, partial_transpose_a, pt_min_eigenvalue

SEPARABLE = "separable_certified"
NPT = "entangled_npt"
RANGE = "entangled_range"
UNDECIDED = "ppt_undecided"

# Inputs judged by the PPT oracle keep their PT minimum eigenvalue at least
# this far from zero, so the expected verdict does not hinge on a tolerance.
PT_MARGIN = 1e-6
# Product vectors count as inside a range when their component in the
# kernel is below this (the program accepts hits at 1e-8 / 1e-7 residual).
RANGE_TOL = 1e-6


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _pairs_to_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def certificate_deviation(cert: dict, rho: np.ndarray, m: int, n: int) -> float:
    """max |W^dag W - U^dag rho U| with W[k, (i, j)] = d[i, k] v[j, k] and U
    the certificate's local basis (identity where none is given)."""
    d = _pairs_to_array(cert["d"])          # m x K
    v = _pairs_to_array(cert["v"])          # n x K
    _require(d.shape[0] == m and v.shape[0] == n and d.shape[1] == v.shape[1],
             f"certificate shapes {d.shape} / {v.shape} do not fit {m}x{n}")
    w = (d[:, None, :] * v[None, :, :]).reshape(m * n, -1).T   # K x mn
    ua = _pairs_to_array(cert["basis_a"]) if "basis_a" in cert else np.eye(m)
    ub = _pairs_to_array(cert["basis_b"]) if "basis_b" in cert else np.eye(n)
    u = np.kron(ua, ub)
    _require(np.abs(u.conj().T @ u - np.eye(m * n)).max() < 1e-10,
             "certificate basis is not unitary")
    return float(np.abs(w.conj().T @ w - u.conj().T @ rho @ u).max())


def check_certificate(report: dict, rho: np.ndarray, m: int, n: int) -> None:
    cert = report.get("certificate")
    _require(cert is not None, "separable verdict without a certificate")
    tol = float(report["tolerances"]["certificate"])
    dev = certificate_deviation(cert, rho, m, n)
    _require(dev <= tol, f"certificate misses the state by {dev:.3e} > {tol:.1e}")


def check_npt(report: dict, rho: np.ndarray, m: int, n: int) -> None:
    own = pt_min_eigenvalue(rho, m, n)
    _require(own < 0, f"NPT verdict but the PT minimum eigenvalue is {own:.3e}")
    got = float(report["ppt_min_eigenvalue"])
    _require(abs(got - own) <= 1e-10,
             f"reported PT minimum eigenvalue {got:.12e} != {own:.12e}")


def check_verdict(case: Case, report: dict) -> str:
    """Check one ``analyze`` report against ``case``; returns the verdict."""
    verdict = report.get("verdict")
    _require(verdict in (SEPARABLE, NPT, RANGE, UNDECIDED), f"unknown verdict {verdict!r}")
    _require(report.get("m") == case.m and report.get("n") == case.n,
             "report dimensions do not match the input")
    if verdict == SEPARABLE:
        check_certificate(report, case.rho, case.m, case.n)
    elif verdict == NPT:
        check_npt(report, case.rho, case.m, case.n)

    expect = case.expect
    allowed = {
        "separable": {SEPARABLE, UNDECIDED},
        "separable_exact": {SEPARABLE},
        "npt": {NPT},
        "range": {RANGE},
        "ppt_not_edge": {SEPARABLE, UNDECIDED},
        "ppt_unknown": {SEPARABLE, UNDECIDED, RANGE},
    }
    if expect == "pt_oracle":
        own = pt_min_eigenvalue(case.rho, case.m, case.n)
        _require(abs(own) > PT_MARGIN, f"oracle input too close to the PPT boundary ({own:.1e})")
        allowed_here = {NPT} if own < 0 else {SEPARABLE, UNDECIDED}
    else:
        allowed_here = allowed[expect]
    _require(verdict in allowed_here,
             f"{case.name}: verdict {verdict} where {sorted(allowed_here)} is expected")
    return verdict


# ---------------------------------------------------------------------------
# product-vector outputs

def check_hit_in_ranges(e: np.ndarray, f: np.ndarray, rho: np.ndarray, m: int, n: int) -> None:
    """|e, f> in range(rho) and |e*, f> in range(rho^{T_A})."""
    v = np.kron(e, f)
    _require(abs(np.linalg.norm(v) - 1) < 1e-8, "hit is not normalized")
    out = np.linalg.norm(kernel(rho).conj().T @ v)
    _require(out <= RANGE_TOL, f"hit has {out:.2e} of its norm in ker(rho)")
    partner = np.kron(e.conj(), f)
    out_pt = np.linalg.norm(kernel(partial_transpose_a(rho, m, n)).conj().T @ partner)
    _require(out_pt <= RANGE_TOL, f"hit partner has {out_pt:.2e} of its norm in ker(rho^T_A)")


def check_hits(hits, case: Case, min_hits: int = 0) -> int:
    """``hits`` are (e, f) pairs; every one must satisfy the range conditions,
    and every planted generator of ``case`` must be among them."""
    _require(len(hits) >= min_hits, f"{case.name}: {len(hits)} hits, expected >= {min_hits}")
    for e, f in hits:
        check_hit_in_ranges(e, f, case.rho, case.m, case.n)
    planted = case.planted.get("generators")
    if planted is not None:
        found = [np.kron(e, f) for e, f in hits]
        for phi, psi in zip(*planted):
            g = np.kron(phi, psi)
            g = g / np.linalg.norm(g)
            best = max((abs(np.vdot(g, h)) for h in found), default=0.0)
            _require(best >= 1 - 1e-6, f"{case.name}: planted generator not found "
                                       f"(best overlap {best:.6f})")
    return len(hits)


def check_edge(verdict: str, witness, case: Case) -> None:
    """``edge_state_test``: Horodecki b < 1 is edge; a state with a known
    range product vector is not; any witness satisfies the range
    conditions."""
    _require(verdict in ("edge", "not_edge", "unknown"), f"unknown edge verdict {verdict!r}")
    want = case.planted.get("edge")
    if want is not None:
        _require(verdict == ("edge" if want else "not_edge"),
                 f"{case.name}: edge test says {verdict}")
    if verdict == "not_edge":
        _require(witness is not None, "not_edge without a witness")
        check_hit_in_ranges(*witness, case.rho, case.m, case.n)
