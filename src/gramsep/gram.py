"""Gram systems of density matrices and the transforms relating them.

A Gram system for rho is a family of vectors w_mn in C^K, indexed by the
product basis, with <w_ij, w_mn> = rho_{ij,mn}.  Vectors are stored as the
K x (M*N) matrix W whose column i*N+j is w_ij, so rho = W^dag W.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import densmat
from .densmat import DensityMatrix, InputError, ReadOnly, product_index


class GramMismatch(InputError):
    pass


class NotIsometry(InputError):
    pass


class DependentBase(InputError):
    pass


class DecompositionMismatch(InputError):
    pass


def phase_fix(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-magnitude component is real positive."""
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if abs(pivot) == 0.0:
        return vec.copy()
    return vec * (abs(pivot) / pivot)


def phase_fix_columns(vecs: np.ndarray) -> np.ndarray:
    """:func:`phase_fix` of every (nonzero) column at once; the phases take
    numpy's scalar abs and division, as there, so the bits agree."""
    pivot = vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])]
    return vecs * np.array([abs(p) / p for p in pivot], dtype=complex)


class GramSystem(ReadOnly):
    def __init__(self, dim_a: int, dim_b: int, vectors: np.ndarray):
        w = np.array(vectors, dtype=complex, order="C")  # K x MN, column m*N+n holds w_mn
        if w.ndim != 2 or w.shape[1] != dim_a * dim_b:
            raise InputError(f"Gram vectors must be K x {dim_a * dim_b}")
        w.setflags(write=False)
        self.__dict__.update(dim_a=dim_a, dim_b=dim_b, vectors=w)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    def vector(self, m: int, n: int) -> np.ndarray:
        return self.vectors[:, product_index(m, n, self.dim_b)]

    def gram_matrix(self) -> np.ndarray:
        return self.vectors.conj().T @ self.vectors

    def residual(self, rho: DensityMatrix) -> float:
        """Max entrywise deviation of the Gram matrix from rho."""
        return float(np.abs(self.gram_matrix() - rho.mat).max())


class Decomposition(ReadOnly):
    """Rank-one decomposition rho = sum_k |Phi_k><Phi_k|; rows of ``terms`` are the Phi_k."""

    def __init__(self, dim_a: int, dim_b: int, terms: np.ndarray):
        t = np.array(terms, dtype=complex, order="C")  # K x (dim_a*dim_b)
        if t.ndim != 2 or t.shape[1] != dim_a * dim_b:
            raise InputError(f"decomposition terms must be K x {dim_a * dim_b}")
        t.setflags(write=False)
        self.__dict__.update(dim_a=dim_a, dim_b=dim_b, terms=t)

    @property
    def k(self) -> int:
        return self.terms.shape[0]

    def density(self) -> np.ndarray:
        return self.terms.T @ self.terms.conj()

    def residual(self, rho: DensityMatrix) -> float:
        return float(np.abs(self.density() - rho.mat).max())


def spectral_decomposition(rho: DensityMatrix, rel_tol: float = densmat.RANK_TOL) -> Decomposition:
    """Terms sqrt(lambda_l) |psi_l> from the eigendecomposition, rank-truncated.

    Eigenvalues descending; each scaled eigenvector has its largest component
    rotated to be real positive; exact ties broken lexicographically.
    """
    evals, evecs = rho.spectrum
    keep = densmat.nonzero_eigenvalues(evals, rel_tol) & (evals > 0)
    lam = evals[keep][::-1]
    vecs = evecs[:, keep][:, ::-1]
    terms = phase_fix_columns(vecs * np.sqrt(lam)).T
    # stable order: descending eigenvalue, then lexicographic within exact ties
    order = sorted(range(len(lam)),
                   key=lambda l: (-lam[l],) + tuple(zip(terms[l].real.round(12),
                                                        terms[l].imag.round(12))))
    return Decomposition(rho.dim_a, rho.dim_b, terms[order])


def gram_from_decomposition(dec: Decomposition, rho: DensityMatrix | None = None,
                            tol: float = 1e-10) -> GramSystem:
    """Gram system w^l_mn = <Phi_l | e_m f_n> of a rank-one decomposition."""
    if rho is not None:
        res = dec.residual(rho)
        if res > tol * max(1.0, float(np.abs(rho.mat).max())):
            raise DecompositionMismatch(f"decomposition misses rho by {res:.3e}")
    return GramSystem(dec.dim_a, dec.dim_b, dec.terms.conj())


def spectral_gram(rho: DensityMatrix) -> GramSystem:
    """Gram system from the spectral decomposition; K = rank(rho)."""
    return gram_from_decomposition(spectral_decomposition(rho))


def embed_gram(g: GramSystem, v: np.ndarray, tol: float = 1e-10) -> GramSystem:
    """Map all vectors through a K' x K isometry; the Gram matrix is unchanged."""
    v = densmat.as_complex_matrix(v)
    if v.shape[1] != g.k:
        raise InputError(f"isometry must have {g.k} columns")
    dev = np.abs(v.conj().T @ v - np.eye(g.k)).max()
    if dev > tol:
        raise NotIsometry(f"V^dag V deviates from identity by {dev:.3e}")
    return GramSystem(g.dim_a, g.dim_b, v @ g.vectors)


class ConnectResult(NamedTuple):
    u: np.ndarray
    residual: float          # max_nu ||U w1_nu - w2_nu||
    unitary_residual: float  # ||U^dag U - I||_max
    rank_deficient: bool     # span < C^K, so U is one of many admissible choices


def _orthonormal_complement(x: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of the columns of x."""
    k, t = x.shape
    if t >= k:
        return np.zeros((k, 0), dtype=complex)
    proj = np.eye(k) - x @ x.conj().T
    u, s, _ = np.linalg.svd(proj)
    return u[:, :k - t]


def connect_gram(g1: GramSystem, g2: GramSystem, tol: float = 1e-8) -> ConnectResult:
    """Unitary U with w2_nu = U w1_nu for Gram systems of the same matrix.

    The two families are orthonormalized against their common Gram matrix and
    U is the basis change between the frames, completed unitarily on the
    orthogonal complements.  U is unique only when the vectors span C^K.
    """
    if g1.k != g2.k:
        raise InputError(f"ambient dimensions differ: {g1.k} vs {g2.k}")
    w1, w2 = g1.vectors, g2.vectors
    gm1, gm2 = g1.gram_matrix(), g2.gram_matrix()
    mismatch = float(np.abs(gm1 - gm2).max())
    if mismatch > tol * max(1.0, float(np.abs(gm1).max())):
        raise GramMismatch(f"Gram matrices differ by {mismatch:.3e}")
    evals, q = densmat.hermitian_eigh((gm1 + gm2) / 2)
    keep = evals > 1e-12 * max(evals[-1], 1e-300)
    lam, qk = evals[keep], q[:, keep]
    x1 = w1 @ qk / np.sqrt(lam)
    x2 = w2 @ qk / np.sqrt(lam)
    c1 = _orthonormal_complement(x1)
    c2 = _orthonormal_complement(x2)
    u = x2 @ x1.conj().T + c2 @ c1.conj().T
    residual = float(np.linalg.norm(u @ w1 - w2, axis=0).max())
    unitary_residual = float(np.abs(u.conj().T @ u - np.eye(g1.k)).max())
    return ConnectResult(u, residual, unitary_residual, rank_deficient=keep.sum() < g1.k)


class FactorMapSystem(NamedTuple):
    """Maps F_m with w_mn = F_m v_n for a chosen independent base {v_n}.

    F_m is pinned down only on span{v_n}; off the span we complete by zero
    (least norm), so equalities between factor systems are meaningful on the
    span only.
    """

    gram: GramSystem
    base: np.ndarray  # K x N
    maps: np.ndarray  # M x K x K
    residual: float

    @property
    def k(self) -> int:
        return self.gram.k


def factor_maps(g: GramSystem, base: np.ndarray | None = None,
                cond_tol: float = 1e-9) -> FactorMapSystem:
    """Build the family F_m = W_m pinv(base); base defaults to the w_0n."""
    m_dim, n_dim = g.dim_a, g.dim_b
    if base is None:
        base = np.column_stack([g.vector(0, n) for n in range(n_dim)])
    base = densmat.as_complex_matrix(base)
    if base.shape != (g.k, n_dim):
        raise InputError(f"base must be {g.k} x {n_dim}")
    svals = np.linalg.svd(base, compute_uv=False)
    if g.k < n_dim or svals[-1] <= cond_tol * svals[0]:
        raise DependentBase(f"base nearly dependent (min singular value {svals[-1]:.3e})")
    pinv = np.linalg.pinv(base)
    maps = np.empty((m_dim, g.k, g.k), dtype=complex)
    residual = 0.0
    for m in range(m_dim):
        slab = np.column_stack([g.vector(m, n) for n in range(n_dim)])
        maps[m] = slab @ pinv
        residual = max(residual, float(np.abs(maps[m] @ base - slab).max()))
    return FactorMapSystem(g, base, maps, residual)


class RelationResult(NamedTuple):
    v: np.ndarray        # K x r isometry connecting the Gram systems
    v_tilde: np.ndarray  # K x r, full rank, mapping base1 to base2
    residual: float      # max_{m,n} ||(V^dag F'_m Vt - F_m) v_n||


def relate_decompositions(f1: FactorMapSystem, f2: FactorMapSystem,
                          tol: float = 1e-8) -> RelationResult:
    """Matrices (V, Vt) with V^dag F'_m Vt = F_m on span{v_n}.

    f1 comes from a spectral (rank-r) system, f2 from a K-term decomposition
    of the same matrix, K >= r.
    """
    r, k = f1.k, f2.k
    if k < r:
        raise InputError(f"second system must have K >= r, got {k} < {r}")
    pad = np.zeros((k, r), dtype=complex)
    pad[:r, :r] = np.eye(r)
    g1k = embed_gram(f1.gram, pad)
    conn = connect_gram(g1k, f2.gram, tol=tol)
    v = conn.u[:, :r]

    base1, base2 = f1.base, f2.base
    vt = base2 @ np.linalg.pinv(base1)
    # pad to full rank r off the span; the relation is only asserted on the span
    span_proj = base1 @ np.linalg.pinv(base1)
    vt = vt + v @ (np.eye(r) - span_proj)

    residual = 0.0
    for m in range(f1.gram.dim_a):
        lhs = v.conj().T @ f2.maps[m] @ vt
        for n in range(f1.gram.dim_b):
            residual = max(residual, float(
                np.linalg.norm((lhs - f1.maps[m]) @ base1[:, n])))
    if residual > 10 * tol:
        raise InputError(f"no consistent (V, Vt) found (residual {residual:.3e})")
    return RelationResult(v, vt, residual)


# JSON dump for the CLI: {"k": int, "vectors": {"m,n": [[re,im], ...]}}

def gram_to_json_dict(g: GramSystem) -> dict:
    vecs = {}
    for m in range(g.dim_a):
        for n in range(g.dim_b):
            vecs[f"{m},{n}"] = densmat.vector_to_lists(g.vector(m, n))
    return {"k": g.k, "m": g.dim_a, "n": g.dim_b, "vectors": vecs}
