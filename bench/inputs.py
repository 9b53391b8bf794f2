"""Seeded benchmark inputs, built with plain numpy.

Nothing here imports the program under test: the states and their expected
properties come from this file alone, so a change to ``gramsep`` cannot
change the inputs it is measured on.  Every generator draws from the
``numpy.random.Generator`` it is handed; the workload builders derive one
generator per state from the run seed, so adding a state to one family does
not shift the others.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Case:
    """One benchmark input.

    ``expect`` names the verdict rule of :mod:`checks` that applies;
    ``planted`` holds construction data the checks may use (product
    vectors of a separable mixture, the b of a Horodecki state).
    """

    name: str
    m: int
    n: int
    rho: np.ndarray
    expect: str
    planted: dict = field(default_factory=dict)

    @property
    def family(self) -> str:
        """Cases named ``family#index`` share a family."""
        return self.name.split("#")[0]


# ---------------------------------------------------------------------------
# linear-algebra helpers (independent of gramsep.densmat)

def partial_transpose_a(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """rho_{ij,kl} -> rho_{kj,il} with the A index slowest."""
    return mat.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)


def hermitian_eigvals(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((mat + mat.conj().T) / 2)


def pt_min_eigenvalue(mat: np.ndarray, m: int, n: int) -> float:
    return float(hermitian_eigvals(partial_transpose_a(mat, m, n))[0])


def numeric_rank(mat: np.ndarray, rel: float = 1e-9) -> int:
    ev = hermitian_eigvals(mat)
    return int(np.sum(np.abs(ev) > rel * np.abs(ev).max()))


def rank_pattern(mat: np.ndarray, m: int, n: int) -> tuple[int, int]:
    return numeric_rank(mat), numeric_rank(partial_transpose_a(mat, m, n))


def _unit_rows(rng: np.random.Generator, k: int, dim: int, real: bool = False) -> np.ndarray:
    v = rng.normal(size=(k, dim))
    if not real:
        v = v + 1j * rng.normal(size=(k, dim))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(complex)


def _random_local_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _psd_rank_project(h: np.ndarray, r: int) -> np.ndarray:
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2)
    evals = np.clip(evals, 0, None)
    idx = np.argsort(evals)[::-1][:r]
    return (evecs[:, idx] * evals[idx]) @ evecs[:, idx].conj().T


def kernel(mat: np.ndarray, rel: float = 1e-9) -> np.ndarray:
    """Orthonormal columns spanning the kernel of a Hermitian matrix."""
    evals, evecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    return evecs[:, np.abs(evals) <= rel * np.abs(evals).max()]


# ---------------------------------------------------------------------------
# state families

def product_mixture(rng: np.random.Generator, m: int, n: int, k: int,
                    real_a: bool = False) -> tuple[np.ndarray, dict]:
    """sum_k w_k |phi_k psi_k><phi_k psi_k| with random weights in [0.5, 1.5]
    (normalized); ``real_a`` makes every phi_k real, so rho = rho^{T_A}."""
    phis = _unit_rows(rng, k, m, real=real_a)
    psis = _unit_rows(rng, k, n)
    w = rng.uniform(0.5, 1.5, size=k)
    w /= w.sum()
    terms = np.einsum("km,kn->kmn", phis, psis).reshape(k, m * n) * np.sqrt(w)[:, None]
    return terms.T @ terms.conj(), {"phis": phis, "psis": psis, "weights": w}


def separable_ball(rng: np.random.Generator, m: int, n: int, frac: float) -> np.ndarray:
    """Full-rank state at Hilbert-Schmidt distance frac / sqrt(d (d-1)) from
    I/d.  For frac < 1 it lies inside the Gurvits-Barnum ball of separable
    states (PRA 66, 062311) and is positive definite."""
    d = m * n
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2
    h -= np.trace(h).real / d * np.eye(d)
    h /= np.linalg.norm(h)
    return np.eye(d) / d + frac / np.sqrt(d * (d - 1)) * h


def wishart(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    x = g @ g.conj().T
    return x / np.trace(x).real


def npt_full_rank(rng: np.random.Generator, m: int, n: int, margin: float = 1e-3) -> np.ndarray:
    """Full-rank random state whose partial transpose has an eigenvalue
    below -margin (redrawn from the same stream until it does)."""
    while True:
        x = wishart(rng, m * n, m * n)
        if pt_min_eigenvalue(x, m, n) < -margin:
            return x


def werner(p: float) -> np.ndarray:
    """Two-qubit Werner line; PT minimum eigenvalue (1 - 3p)/4."""
    return np.array([[1 + p, 0, 0, 2 * p],
                     [0, 1 - p, 0, 0],
                     [0, 0, 1 - p, 0],
                     [2 * p, 0, 0, 1 + p]], dtype=complex) / 4


def pure_state(vec: np.ndarray) -> np.ndarray:
    v = vec / np.linalg.norm(vec)
    return np.outer(v, v.conj())


def horodecki(b: float) -> np.ndarray:
    """P. Horodecki's 2x4 rank-(5,5) PPT family written in canonical form
    [[B B^dag + |l><l|, B], [B^dag, I]] with B the shift and
    l = (sqrt((1-b)/2b), 0, 0, sqrt((1+b)/2b)); entangled for b < 1,
    separable at b = 1."""
    bmat = np.diag(np.ones(3), 1).astype(complex)
    lam = np.array([np.sqrt((1 - b) / (2 * b)), 0, 0, np.sqrt((1 + b) / (2 * b))],
                   dtype=complex)
    a = bmat @ bmat.conj().T + np.outer(lam, lam.conj())
    mat = np.block([[a, bmat], [bmat.conj().T, np.eye(4)]])
    return mat / np.trace(mat).real


def local_rotate(rng: np.random.Generator, mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Conjugate by a random U_A (x) U_B; keeps separability and rank pattern."""
    u = np.kron(_random_local_unitary(rng, m), _random_local_unitary(rng, n))
    return u @ mat @ u.conj().T


def range_product_vector(rng: np.random.Generator, mat: np.ndarray, n: int):
    """A product vector e (x) f (e = (1, alpha), random alpha) inside the
    range of a 2xN state whose kernel has dimension N - 1."""
    ker = kernel(mat).conj().T
    alpha = complex(*rng.normal(size=2))
    rows = ker[:, :n] + alpha * ker[:, n:]
    f = np.linalg.svd(rows)[2][-1].conj()
    e = np.array([1, alpha]) / np.sqrt(1 + abs(alpha) ** 2)
    return e, f / np.linalg.norm(f)


def separable_56(rng: np.random.Generator) -> np.ndarray:
    """Five product terms plus a sixth product vector inside their span:
    separable, rank pattern (5,6)."""
    rho5, _ = product_mixture(rng, 2, 4, 5)
    e, f = range_product_vector(rng, rho5, 4)
    v = np.kron(e, f)
    mat = rho5 + 0.2 * np.outer(v, v.conj())
    return mat / np.trace(mat).real


def horodecki_range_mixture(rng: np.random.Generator, b: float, weight: float = 0.08) -> np.ndarray:
    """Horodecki state mixed with a product projector from its own range:
    PPT, rank pattern (5,6) and not edge, so the range criterion is silent."""
    rho = horodecki(b)
    e, f = range_product_vector(rng, rho, 4)
    v = np.kron(e, f)
    return (1 - weight) * rho + weight * np.outer(v, v.conj())


def alternating_projections(rng: np.random.Generator, rank: int, pt_rank: int,
                            iters: int) -> np.ndarray | None:
    """2x4 state of rank ``rank`` whose partial transpose is PSD of rank
    ``pt_rank``, by alternating projections; None when it misses."""
    x = wishart(rng, 8, rank)
    for _ in range(iters):
        x = _psd_rank_project(x, rank)
        x /= np.trace(x).real
        y = partial_transpose_a(x, 2, 4)
        x = partial_transpose_a(_psd_rank_project(y, pt_rank), 2, 4)
    x = _psd_rank_project(x, rank)
    x /= np.trace(x).real
    if rank_pattern(x, 2, 4) != (rank, pt_rank) or pt_min_eigenvalue(x, 2, 4) < -1e-10:
        return None
    return x


def npt_57(rng: np.random.Generator, iters: int = 250) -> np.ndarray | None:
    """Rank-5 2x4 state whose partial transpose has exactly one zero
    eigenvalue (rank pattern (5,7)) and a negative one: alternating
    projections between rank-5 PSD matrices and matrices whose partial
    transpose kills a frozen vector."""
    x = wishart(rng, 8, 5)
    u = None
    for it in range(iters):
        x = _psd_rank_project(x, 5)
        x /= np.trace(x).real
        y = partial_transpose_a(x, 2, 4)
        y = (y + y.conj().T) / 2
        if u is None or it < 6:
            evals, evecs = np.linalg.eigh(y)
            u = evecs[:, np.argmin(np.abs(evals))]
        proj = np.eye(8) - np.outer(u, u.conj())
        x = partial_transpose_a(proj @ y @ proj, 2, 4)
    x = _psd_rank_project(x, 5)
    x /= np.trace(x).real
    ev = np.sort(np.abs(hermitian_eigvals(partial_transpose_a(x, 2, 4))))
    if not (ev[0] < 1e-11 and ev[1] > 1e-4) or rank_pattern(x, 2, 4) != (5, 7):
        return None
    if pt_min_eigenvalue(x, 2, 4) > -1e-4:
        return None
    return x


def first_hit(make, rng: np.random.Generator, tries: int = 50):
    """First non-None result of ``make(rng)``; every try draws afresh from
    the same stream, so the result is a function of the stream's seed."""
    for _ in range(tries):
        out = make(rng)
        if out is not None:
            return out
    raise RuntimeError("generator missed on every try")


def digest(cases: list[Case]) -> str:
    """sha256 over names and matrices rounded to 12 digits."""
    h = hashlib.sha256()
    for c in cases:
        h.update(c.name.encode())
        h.update(np.round(c.rho, 12).tobytes())
    return h.hexdigest()[:16]
