"""Dense complex matrices, density-matrix validation, product indexing and PPT tests."""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Default relative tolerance for Hermiticity / PSD / trace checks.  Double
# precision eigensolvers deliver ~1e-12 backward error; 1e-9 absorbs
# accumulation through a few chained decompositions.
DEFAULT_TOL = 1e-9

# Rank decisions use this relative eigenvalue threshold unless overridden.
RANK_TOL = 1e-9


class InputError(ValueError):
    """Bad user input (wrong shape, out-of-range index, malformed JSON)."""


class SizeMismatch(InputError):
    pass


class NotHermitian(InputError):
    def __init__(self, deviation):
        self.deviation = deviation
        super().__init__(f"matrix is not Hermitian (max deviation {deviation:.3e})")


class NotPSD(InputError):
    def __init__(self, min_eigenvalue):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(f"matrix is not PSD (min eigenvalue {min_eigenvalue:.3e})")


class TraceDeviation(InputError):
    def __init__(self, trace):
        self.trace = trace
        super().__init__(f"trace deviates from one (trace {trace})")


def product_index(i: int, j: int, dim_b: int) -> int:
    """Flat index of |e_i f_j> with the A index slowest: i*dim_b + j."""
    if i < 0 or j < 0 or j >= dim_b:
        raise InputError(f"index ({i},{j}) out of range for dim_b={dim_b}")
    return i * dim_b + j


def as_complex_matrix(mat) -> np.ndarray:
    """Coerce to a C-contiguous complex128 2-D array."""
    m = np.ascontiguousarray(mat, dtype=complex)
    if m.ndim != 2:
        raise InputError(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def hermitian_deviation(mat: np.ndarray) -> float:
    """Max-entry deviation from Hermiticity, relative to the largest entry;
    InputError on a NaN or infinite entry, which that entry shows before any arithmetic."""
    scale = np.abs(mat).max()
    if not scale < np.inf:  # NaN fails the comparison too
        raise InputError("matrix has a NaN or infinite entry")
    if scale == 0.0:
        return 0.0
    return np.abs(mat - mat.conj().T).max() / scale


def hermitian_eigh(mat: np.ndarray):
    """``np.linalg.eigh`` of the Hermitian part of mat, with read-only arrays."""
    out = np.linalg.eigh((mat + mat.conj().T) / 2)
    for arr in out:
        arr.setflags(write=False)
    return out


def nonzero_eigenvalues(evals: np.ndarray, rel_tol: float = RANK_TOL) -> np.ndarray:
    """Mask of the eigenvalues counted in the numeric rank, |eig| > rel_tol * max|eig|;
    the eigenvectors of the others span the numeric kernel."""
    mags = np.abs(evals)
    return mags > rel_tol * (mags.max() if mags.size else 0.0)


class ReadOnly:
    """Base of the records that check or convert their fields in ``__init__``:
    each ``__init__`` fills the instance dict once, and assigning or deleting
    an attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class DensityMatrix(ReadOnly):
    """A validated Hermitian PSD operator on an M x N product space.

    ``mat`` is stored read-only.  ``unnormalized`` marks states whose trace is
    intentionally not one (e.g. after the canonical 2xN transform, which
    rescales the trace); validation then skips the trace check.  The cached
    ``spectrum`` and ``pt_spectrum`` are shared by every reader, so read-only.
    """

    def __init__(self, dim_a: int, dim_b: int, mat: np.ndarray, tol: float = DEFAULT_TOL,
                 unnormalized: bool = False):
        m = as_complex_matrix(np.array(mat, dtype=complex, order="C"))  # a copy of its own
        m.setflags(write=False)
        self.__dict__.update(dim_a=dim_a, dim_b=dim_b, mat=m, tol=tol, unnormalized=unnormalized)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def block(self, i: int, m: int) -> np.ndarray:
        """The (i,m) block of the A-indexed block structure (dim_b x dim_b)."""
        n = self.dim_b
        return self.mat[i * n:(i + 1) * n, m * n:(m + 1) * n]

    @cached_property
    def spectrum(self):
        """(eigenvalues ascending, eigenvectors as columns) of rho."""
        return hermitian_eigh(self.mat)

    @cached_property
    def pt_spectrum(self):
        """(eigenvalues ascending, eigenvectors as columns) of rho^{T_A}."""
        return hermitian_eigh(partial_transpose(self, "A"))


def validate_density(mat, dim_a: int, dim_b: int, tol: float = DEFAULT_TOL,
                     unnormalized: bool = False) -> DensityMatrix:
    """Validate Hermiticity, positivity and trace; return a DensityMatrix.

    Raises SizeMismatch / NotHermitian / NotPSD / TraceDeviation with the
    offending quantity attached, and InputError on a NaN or infinite entry
    and on the zero operator.
    """
    if dim_a < 2 or dim_b < dim_a:
        raise InputError(f"need 2 <= dim_a <= dim_b, got ({dim_a},{dim_b})")
    rho = DensityMatrix(dim_a, dim_b, mat, tol=tol, unnormalized=unnormalized)
    m = rho.mat
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise SizeMismatch(f"expected {d}x{d}, got {m.shape[0]}x{m.shape[1]}")
    dev = hermitian_deviation(m)
    if dev > tol:
        raise NotHermitian(dev)
    evals = rho.spectrum.eigenvalues
    if evals[0] < -tol * max(evals[-1], 1e-300):
        raise NotPSD(evals[0])
    if evals[-1] <= 0.0:
        raise InputError("matrix is the zero operator, which is no state")
    tr = m.trace().real
    if not unnormalized and abs(tr - 1.0) > tol * max(1.0, abs(tr)):
        raise TraceDeviation(m.trace())
    return rho


def partial_transpose(rho, subsystem: str = "A", dims=None) -> np.ndarray:
    """Partial transpose on one tensor factor.

    T_A sends rho_{ij,mn} to rho_{mj,in}; T_B sends it to rho_{in,mj}.
    Accepts a DensityMatrix or a raw array with explicit ``dims=(M, N)``.
    """
    if isinstance(rho, DensityMatrix):
        m, n, mat = rho.dim_a, rho.dim_b, rho.mat
    else:
        if dims is None:
            raise InputError("dims=(M, N) required for raw arrays")
        m, n = dims
        mat = as_complex_matrix(rho)
    t = mat.reshape(m, n, m, n)
    if subsystem == "A":
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == "B":
        t = t.transpose(0, 3, 2, 1)
    else:
        raise InputError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return np.ascontiguousarray(t.reshape(m * n, m * n))


class RankReport(ReadOnly):
    def __init__(self, rank: int, eigenvalues: np.ndarray, threshold: float):
        ev = np.array(eigenvalues, dtype=float)  # descending, a copy of its own
        ev.setflags(write=False)
        self.__dict__.update(rank=rank, eigenvalues=ev, threshold=threshold)


def numeric_rank(h, rel_tol: float = RANK_TOL) -> RankReport:
    """Rank of a raw Hermitian matrix (a DensityMatrix has rank_pattern)."""
    m = as_complex_matrix(h)
    dev = hermitian_deviation(m)
    if dev > 1e-8:
        raise NotHermitian(dev)
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2)[::-1]
    scale = np.abs(evals).max() if evals.size else 0.0
    rank = int(np.sum(nonzero_eigenvalues(evals, rel_tol)))
    return RankReport(rank, evals, rel_tol * scale)


def is_ppt(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """PPT test: (min eigenvalue of rho^{T_A} >= -tol * max eigenvalue, min eigenvalue)."""
    evals = rho.pt_spectrum.eigenvalues
    min_eig = float(evals[0])
    return min_eig >= -tol * max(evals[-1], 1e-300), min_eig


def rank_pattern(rho: DensityMatrix, rel_tol: float = RANK_TOL) -> tuple[int, int]:
    """(rank rho, rank rho^{T_A})."""
    return (int(np.count_nonzero(nonzero_eigenvalues(rho.spectrum.eigenvalues, rel_tol))),
            int(np.count_nonzero(nonzero_eigenvalues(rho.pt_spectrum.eigenvalues, rel_tol))))


# ---------------------------------------------------------------------------
# JSON state format:
#   {"m": int, "n": int, "unnormalized": bool, "data": [[[re, im], ...], ...]}
# row-major with row index i*n + j.

def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_lists(mat: np.ndarray) -> list:
    z = np.asarray(mat, dtype=complex)  # also vectors: one list level per axis
    return np.stack([z.real, z.imag], -1).tolist()


vector_to_lists = matrix_to_lists


def lists_to_matrix(data) -> np.ndarray:
    try:
        arr = np.ascontiguousarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed complex matrix data: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise InputError("matrix data must be nested [re, im] pairs")
    return arr.view(complex)[..., 0]  # no arithmetic, so a non-finite part stays as it is


def lists_to_vector(data) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("vector data must be a list of [re, im] pairs")
    return arr.view(complex)[:, 0]


def state_to_json_dict(rho: DensityMatrix) -> dict:
    return {
        "m": rho.dim_a,
        "n": rho.dim_b,
        "unnormalized": rho.unnormalized,
        "data": matrix_to_lists(rho.mat),
    }


def state_from_json_dict(d: dict, tol: float = DEFAULT_TOL) -> DensityMatrix:
    try:
        m = int(d["m"])
        n = int(d["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"state JSON needs integer 'm' and 'n': {exc}") from exc
    unnormalized = bool(d.get("unnormalized", False))
    mat = lists_to_matrix(d.get("data"))
    if mat.shape[0] != mat.shape[1]:
        raise InputError(f"state data must be square, got {mat.shape}")
    return validate_density(mat, m, n, tol=tol, unnormalized=unnormalized)
