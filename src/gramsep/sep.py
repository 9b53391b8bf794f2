"""Separability certificates and full families of commuting normal matrices.

A diagonal Gram certificate (diagonal matrices D_1..D_M plus a frame
v_1..v_N) witnesses separability: w_ij = D_i v_j is then a Gram system for
rho, and the product decomposition can be read off the diagonals and the
frame.  The equivalent matrix-family formulation uses the M(M-1)/2 normal
commuting matrices M_mk = U D_m D_k^{-1} U^dag, which map the Gram vectors
w_kn of any K-term decomposition onto w_mn.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import densmat, gram
from .densmat import DensityMatrix, InputError, ReadOnly
from .gram import GramSystem

# Diagonals with entries below this (times the largest entry) count as singular.
SINGULAR_DIAG_TOL = 1e-12


class ZeroDiagonal(InputError):
    pass


class SingularD(InputError):
    pass


class CertificateInvalid(InputError):
    pass


class JointDiagonalizationFailed(RuntimeError):
    pass


class SeparableDecomposition(ReadOnly):
    """Product pairs (phi_k, psi_k) with rho = sum_k |phi_k psi_k><phi_k psi_k|;
    ``phis`` is K x dim_a, ``psis`` K x dim_b."""

    def __init__(self, dim_a: int, dim_b: int, phis: np.ndarray, psis: np.ndarray):
        p = np.array(phis, dtype=complex, order="C")  # copies of its own
        q = np.array(psis, dtype=complex, order="C")
        if p.ndim != 2 or q.ndim != 2 or p.shape[0] != q.shape[0]:
            raise InputError("phis and psis must be K x M and K x N")
        if p.shape[1] != dim_a or q.shape[1] != dim_b:
            raise InputError("product vector dimensions do not match (dim_a, dim_b)")
        p.setflags(write=False)
        q.setflags(write=False)
        self.__dict__.update(dim_a=dim_a, dim_b=dim_b, phis=p, psis=q)

    @property
    def k(self) -> int:
        return self.phis.shape[0]

    def product_terms(self) -> np.ndarray:
        """K x (M*N) rows |phi_k (x) psi_k>."""
        return np.einsum("km,kn->kmn", self.phis, self.psis).reshape(self.k, -1)

    def density(self) -> np.ndarray:
        t = self.product_terms()
        return t.T @ t.conj()

    def residual(self, rho: DensityMatrix) -> float:
        return float(np.abs(self.density() - rho.mat).max())


class DiagonalGramCertificate(ReadOnly):
    """Separability witness data: diagonals[m] (length K) and frame[n] (length K).

    ``basis_a``/``basis_b`` record the local basis the certificate refers to
    (None means computational); <D_i v_j, D_m v_n> equals rho expressed in
    that basis.  A basis that is not unitary to 1e-10 (or holds a NaN)
    would rescale rho instead of only turning it: gram.NotIsometry.
    """

    def __init__(self, dim_a: int, dim_b: int, diagonals: np.ndarray, frame: np.ndarray,
                 basis_a: np.ndarray | None = None, basis_b: np.ndarray | None = None):
        d = np.array(diagonals, dtype=complex, order="C")  # M x K, copies of its own
        v = np.array(frame, dtype=complex, order="C")      # N x K
        if d.shape[0] != dim_a or v.shape[0] != dim_b or d.shape[1] != v.shape[1]:
            raise InputError("need diagonals M x K and frame N x K")
        for basis, dim in ((basis_a, dim_a), (basis_b, dim_b)):
            if basis is None:
                continue
            if np.shape(basis) != (dim, dim):
                raise InputError(f"a local basis must be {dim} x {dim}, got {np.shape(basis)}")
            dev = np.abs(np.conj(basis).T @ basis - np.eye(dim)).max()
            if not dev <= 1e-10:
                raise gram.NotIsometry(f"a local basis deviates from unitarity by {dev:.3e}")
        d.setflags(write=False)
        v.setflags(write=False)
        self.__dict__.update(dim_a=dim_a, dim_b=dim_b, diagonals=d, frame=v,
                             basis_a=basis_a, basis_b=basis_b)

    @property
    def k(self) -> int:
        return self.diagonals.shape[1]

    def min_abs_diagonal(self) -> float:
        return float(np.abs(self.diagonals).min())

    def is_nonsingular(self) -> bool:
        scale = max(float(np.abs(self.diagonals).max()), 1e-300)
        return self.min_abs_diagonal() > SINGULAR_DIAG_TOL * scale

    def gram_system(self) -> GramSystem:
        w = self.diagonals[:, None, :] * self.frame[None, :, :]  # [m, n] holds w_mn = D_m v_n
        return GramSystem(self.dim_a, self.dim_b, w.reshape(-1, self.k).T)

    def local_frame(self) -> tuple[np.ndarray, np.ndarray]:
        ua = np.eye(self.dim_a, dtype=complex) if self.basis_a is None else self.basis_a
        ub = np.eye(self.dim_b, dtype=complex) if self.basis_b is None else self.basis_b
        return ua, ub


class CertificateReport(NamedTuple):
    max_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


def verify_certificate(cert: DiagonalGramCertificate, rho: DensityMatrix,
                       tol: float = 1e-9) -> CertificateReport:
    """Max entrywise deviation of <D_i v_j, D_m v_n> from rho."""
    if (cert.dim_a, cert.dim_b) != (rho.dim_a, rho.dim_b):
        raise InputError(f"certificate is {cert.dim_a}x{cert.dim_b}, state {rho.dim_a}x{rho.dim_b}")
    target = rho.mat  # rho in the certificate's local basis
    if cert.basis_a is not None or cert.basis_b is not None:
        u = np.kron(*cert.local_frame())
        target = u.conj().T @ rho.mat @ u
    dev = float(np.abs(cert.gram_system().gram_matrix() - target).max())
    return CertificateReport(dev, tol)


def _givens(dim: int, i: int, j: int, angle: float) -> np.ndarray:
    g = np.eye(dim, dtype=complex)
    c, s = np.cos(angle), np.sin(angle)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def decomposition_to_certificate(sd: SeparableDecomposition) -> DiagonalGramCertificate:
    """Certificate with (D_m)_ll = <phi_l|e_m> and (v_n)_l = <psi_l|f_n>.

    If some phi_l is orthogonal to a basis vector the diagonal picks up a
    zero; we then retune the A basis by a small deterministic Givens rotation
    on the offending pair (up to 8 angles) so every diagonal is nonsingular.
    """
    m_dim = sd.dim_a
    ua = None  # the computational basis until a Givens turn is applied
    scale = max(float(np.abs(sd.phis).max()), 1e-300)
    for attempt in range(9):
        diag = (sd.phis.T if ua is None else ua.conj().T @ sd.phis.T).conj()  # [m, l] = <phi_l|e'_m>
        small = np.abs(diag) <= SINGULAR_DIAG_TOL * scale
        if not small.any():
            break
        if attempt == 8:
            raise ZeroDiagonal(
                "could not remove zero diagonals by basis perturbation")
        m = int(small.any(axis=1).argmax())
        turn = _givens(m_dim, m, (m + 1) % m_dim, (attempt + 1) * 1e-3)
        ua = turn if ua is None else ua @ turn
    return DiagonalGramCertificate(sd.dim_a, sd.dim_b, diag, sd.psis.T.conj(), basis_a=ua)


def certificate_to_decomposition(cert: DiagonalGramCertificate,
                                 rho: DensityMatrix | None = None,
                                 tol: float = 1e-9) -> SeparableDecomposition:
    """Read the product decomposition off a certificate."""
    phis = cert.diagonals.conj() if cert.basis_a is None else cert.basis_a @ cert.diagonals.conj()
    psis = cert.frame.conj() if cert.basis_b is None else cert.basis_b @ cert.frame.conj()
    sd = SeparableDecomposition(cert.dim_a, cert.dim_b, phis.T, psis.T)
    if rho is not None:
        res = sd.residual(rho)
        if res > tol * max(1.0, float(np.abs(rho.mat).max())):
            raise CertificateInvalid(f"certificate misses rho by {res:.3e}")
    return sd


# ---------------------------------------------------------------------------
# FFCNM: the M(M-1)/2 normal commuting matrices of the matrix-family SNC.

class FfcnmFamily(ReadOnly):
    """``matrices[(m, k)]`` maps w_kn -> w_mn, m > k; ``diagnostics`` is a new
    dict per family unless one is given."""

    def __init__(self, k: int, matrices: dict[tuple[int, int], np.ndarray],
                 diagnostics: dict | None = None):
        self.__dict__.update(k=k, matrices=matrices,
                             diagnostics={} if diagnostics is None else diagnostics)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.matrices.keys())


def normality_residual(m: np.ndarray) -> float:
    """||[M, M^dag]||_F / ||M||_F^2."""
    nrm = np.linalg.norm(m)
    if nrm == 0.0:
        return 0.0
    mh = m.conj().T
    comm = m @ mh - mh @ m
    return float(np.linalg.norm(comm) / nrm**2)


def commutation_residual(a: np.ndarray, b: np.ndarray) -> float:
    """||[A, B]||_F / (||A||_F ||B||_F)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.linalg.norm(a @ b - b @ a) / (na * nb))


def build_ffcnm(cert: DiagonalGramCertificate, u: np.ndarray | None = None) -> FfcnmFamily:
    """Family M_mk = U D_m D_k^{-1} U^dag over all index pairs m > k."""
    if not cert.is_nonsingular():
        raise SingularD(
            f"certificate diagonals nearly singular (min entry {cert.min_abs_diagonal():.3e})")
    k = cert.k
    if u is None:
        u = np.eye(k, dtype=complex)
    u = densmat.as_complex_matrix(u)
    dev = np.abs(u.conj().T @ u - np.eye(k)).max()
    if dev > 1e-10:
        raise gram.NotIsometry(f"U deviates from unitarity by {dev:.3e}")
    mats = {}
    for m in range(1, cert.dim_a):
        for kk in range(m):
            ratio = cert.diagonals[m] / cert.diagonals[kk]
            mats[(m, kk)] = (u * ratio) @ u.conj().T
    diag = {
        "normality": max(normality_residual(x) for x in mats.values()),
        "commutation": _worst_commutation(mats),
    }
    return FfcnmFamily(k, mats, diag)


def _worst_commutation(mats: dict) -> float:
    keys = sorted(mats.keys())
    worst = 0.0
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            worst = max(worst, commutation_residual(mats[a], mats[b]))
    return worst


class FfcnmReport(NamedTuple):
    normality: float
    commutation: float
    relation: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.normality, self.commutation) <= self.tol and self.relation <= self.tol


def verify_ffcnm(fam: FfcnmFamily, g: GramSystem, tol: float = 1e-8) -> FfcnmReport:
    """Check normality, mutual commutation and M_mk w_kn = w_mn on the Gram system."""
    if fam.k != g.k:
        raise InputError(f"family K={fam.k} but Gram system K={g.k}")
    normal = max(normality_residual(m) for m in fam.matrices.values())
    return FfcnmReport(normal, _worst_commutation(fam.matrices), relation_residual(fam, g), tol)


def relation_residual(fam: FfcnmFamily, g: GramSystem) -> float:
    """The largest |M_mk w_kn - w_mn| over the family and n."""
    w = g.vectors.reshape(g.k, g.dim_a, g.dim_b)  # w[:, m] holds w_m0 .. w_m(N-1)
    return max((float(np.linalg.norm(mat @ w[:, kk] - w[:, m], axis=0).max())
                for (m, kk), mat in fam.matrices.items()), default=0.0)


# ---------------------------------------------------------------------------
# Joint diagonalization (one eigendecomposition of a real combination).

# Seed of the fixed real weights of joint_diagonalize's combinations, and the
# first 32 standard-normal draws of np.random.default_rng(_COMBINATION_SEED),
# stored so that no generator is built; they cover families of up to 8 matrices.
_COMBINATION_SEED = 2007
_COMBINATION_DRAWS = (
    0.16146828644157823, 1.2141128747185916, -1.0531145143107492, 0.3389711893536884,
    0.5397726401756993, -1.001274129624444, 1.1513668703457798, 0.5859030346189535,
    -0.7813434133821092, -1.0650491605531198, 0.5194551993916214, -0.5230471699087961,
    -0.6854503717316746, -0.04264770973977508, 1.224412140400381, 0.4982080512937768,
    0.08993272615416378, -0.16258190669880979, 0.40388475261528073, 0.12731442258172274,
    1.9445554068359254, -0.5423487757363272, 0.005634324139207112, 1.0935367082396683,
    -0.29681027206212696, -1.1832467142085514, -0.5559193651136531, 1.208644718149299,
    1.6594790870544232, 1.251162324270331, 1.1690778471125804, -0.8979986561241893,
)
# Residual above which joint_diagonalize tries its second combination.
_RETRY_ABOVE = 1e-8


@functools.lru_cache(maxsize=None)
def _combination_weights(n_parts: int) -> np.ndarray:
    """The two real weight vectors joint_diagonalize tries, in order (shared,
    read-only): default_rng(_COMBINATION_SEED).normal(size=(2, n_parts))."""
    if 2 * n_parts > len(_COMBINATION_DRAWS):
        raise InputError(f"joint diagonalization takes at most {len(_COMBINATION_DRAWS) // 4} "
                         f"matrices ({len(_COMBINATION_DRAWS) // 2} Hermitian parts), "
                         f"got {n_parts} parts")
    weights = np.array(_COMBINATION_DRAWS[:2 * n_parts]).reshape(2, n_parts)
    weights.setflags(write=False)
    return weights


def joint_diagonalize(mats):
    """Simultaneously diagonalize a commuting family of normal matrices.

    By Fuglede-Putnam the Hermitian parts (M + M^dag)/2 and (M - M^dag)/2i of
    a commuting normal family commute too, so a generic real combination of
    them has exactly the family's joint eigenbasis (Bunse-Gerstner, Byers &
    Mehrmann 1993): one Hermitian eigendecomposition gives u.  A combination
    that merges two distinct joint eigenvalues mixes their eigenvectors; a
    residual above 1e-8 then retries once with a second fixed combination and
    keeps the better one.  Returns (u, diagonals, off_residual) with
    u^dag M u ~ diag for every input M; off_residual is the worst
    ||offdiag(u^dag M u)||_F / ||u^dag M u||_F.  Weights (a_j, b_j) on (H_j, K_j)
    make twice the combination C + C^dag, C = sum_j (a_j - i b_j) M_j.
    """
    mats = np.array(mats, dtype=complex)
    count, k = mats.shape[:2]
    best = None
    for weights in _combination_weights(2 * count):
        c = ((weights[:count] - 1j * weights[count:]) @ mats.reshape(count, -1)).reshape(k, k)
        _, u = np.linalg.eigh(c + c.conj().T)
        t = u.conj().T @ mats @ u
        diags = t.diagonal(axis1=1, axis2=2).copy()
        square = (t.conj() * t).real.reshape(count, -1)  # |entry|^2 per member
        size = square.sum(axis=1)
        square[:, ::k + 1] = 0.0  # what is left is offdiag(u^dag M u)
        off = float(np.sqrt((square.sum(axis=1) / np.maximum(size, 1e-300)).max()))
        if best is None or off < best[2]:
            best = (u, diags, off)
        if off <= _RETRY_ABOVE:
            break
    return best


def extract_certificate(fam: FfcnmFamily, g: GramSystem,
                        offdiag_tol: float = 1e-8) -> DiagonalGramCertificate:
    """Certificate from a verified family: jointly diagonalize, read off
    frame v_n = U^dag w_0n and diagonals from the (m, 0) matrices."""
    if fam.k != g.k:
        raise InputError(f"family K={fam.k} but Gram system K={g.k}")
    m_dim = g.dim_a
    needed = [(m, 0) for m in range(1, m_dim)]
    missing = [p for p in needed if p not in fam.matrices]
    if missing:
        raise InputError(f"family lacks the pairs {missing} needed for extraction")
    mats = [fam.matrices[p] for p in needed]
    u, diags, off = joint_diagonalize(mats)
    if off > offdiag_tol:
        raise JointDiagonalizationFailed(
            f"off-diagonal residual {off:.3e} exceeds {offdiag_tol:.1e}")
    diagonals = np.ones((m_dim, fam.k), dtype=complex)
    diagonals[1:] = diags
    frame = (u.conj().T @ g.vectors[:, :g.dim_b]).T  # v_n = U^dag w_0n
    return DiagonalGramCertificate(g.dim_a, g.dim_b, diagonals, frame)


# JSON certificate format: {"k": int, "d": [[...]], "v": [[...]]}
# with the optional local bases carried alongside when they are non-trivial.

def certificate_to_json_dict(cert: DiagonalGramCertificate) -> dict:
    out = {
        "k": cert.k,
        "m": cert.dim_a,
        "n": cert.dim_b,
        "d": densmat.matrix_to_lists(cert.diagonals),
        "v": densmat.matrix_to_lists(cert.frame),
    }
    if cert.basis_a is not None:
        out["basis_a"] = densmat.matrix_to_lists(cert.basis_a)
    if cert.basis_b is not None:
        out["basis_b"] = densmat.matrix_to_lists(cert.basis_b)
    return out


def certificate_from_json_dict(d: dict) -> DiagonalGramCertificate:
    try:
        diag = np.array([densmat.lists_to_vector(row) for row in d["d"]])
        frame = np.array([densmat.lists_to_vector(row) for row in d["v"]])
        dim_a = int(d.get("m", diag.shape[0]))
        dim_b = int(d.get("n", frame.shape[0]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate JSON: {exc}") from exc
    ba = densmat.lists_to_matrix(d["basis_a"]) if "basis_a" in d else None
    bb = densmat.lists_to_matrix(d["basis_b"]) if "basis_b" in d else None
    return DiagonalGramCertificate(dim_a, dim_b, diag, frame, basis_a=ba, basis_b=bb)
