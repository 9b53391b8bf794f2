"""Gram systems of density matrices, their decompositions and embeddings.

A Gram system for rho is a family of vectors w_mn in C^K, indexed by the
product basis, with <w_ij, w_mn> = rho_{ij,mn}.  Vectors are stored as the
K x (M*N) matrix W whose column i*N+j is w_ij, so rho = W^dag W.
"""

from __future__ import annotations

import numpy as np

from . import densmat
from .densmat import DensityMatrix, InputError, ReadOnly, product_index


class NotIsometry(InputError):
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


# JSON dump for the CLI: {"k": int, "vectors": {"m,n": [[re,im], ...]}}

def gram_to_json_dict(g: GramSystem) -> dict:
    vecs = {}
    for m in range(g.dim_a):
        for n in range(g.dim_b):
            vecs[f"{m},{n}"] = densmat.vector_to_lists(g.vector(m, n))
    return {"k": g.k, "m": g.dim_a, "n": g.dim_b, "vectors": vecs}
