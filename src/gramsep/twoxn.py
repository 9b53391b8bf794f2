"""Canonical 2xN forms and normal extensions of partially known matrices.

A full-rank-C 2xN state is brought to the form [[A, B], [B^dag, I]] by the
local map I (x) C^{-1/2}.  Positivity gives A = B B^dag + Lam Lam^dag, and
the PPT condition is equivalent to A - B^dag B >= 0 with a factor
Lamt^dag Lamt.  Separability is then the existence of a normal completion

    M = [[B, R], [T, S]],   R R^dag = Lam Lam^dag,  T^dag T = Lamt^dag Lamt,

with S free; the adjoint of M maps the Gram vectors w_0n of the companion
(N+q)-term decomposition onto w_1n, so a completion feeds straight into the
certificate extraction of :mod:`gramsep.sep`.

The completion has a U(q) gauge: conjugation by diag(I, U) keeps B, both
factor constraints, normality and w_0n, and some U takes any admissible
T = W Lamt (W an isometry) to [Lamt; 0], where the general solver pins it.
Both searching solvers polish with Levenberg-Marquardt on this pinned
completion, from the best cell of a (5,6) sphere scan (cells fitted from
cached monomials and scored by blocks in closed form, none assembled) or
from V = [I; 0], then all random restarts at once as the lanes of one
stacked descent.  It is plain numpy with fixed stops and a damping floor;
a start gives the same completion, alone or in a stack.  A lane whose
|f|^2 has fallen by less than _LM_STALL = 1e-3 of itself over its last 10
residual evaluations stops, so a completion that does not exist is given
up in a few dozen evaluations rather than the 4,000 of the cap.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import densmat, gram, sep
from .densmat import DensityMatrix, InputError, NotPSD


class SingularC(InputError):
    def __init__(self, min_eigenvalue):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"lower-right block is singular (min eigenvalue {min_eigenvalue:.3e}); "
            "the state has a product vector in its kernel and is either NPT or "
            "supported on a 2x(N-1) subspace")


class NotPPT(InputError):
    pass


class RankMismatch(InputError):
    pass


class NotSelfPT(InputError):
    pass


def factor_psd(h, rel_tol: float = 1e-9, scale: float | None = None) -> np.ndarray:
    """Minimal-width factor F with F F^dag = h for Hermitian PSD h.

    Columns are sqrt(eigenvalue)-scaled eigenvectors, eigenvalues descending,
    each column phase-fixed; width equals the numeric rank.  ``scale``
    overrides the eigenvalue reference when h is a small difference of
    larger matrices and its own scale is all noise.
    """
    m = densmat.as_complex_matrix(h)
    dev = densmat.hermitian_deviation(m)
    if dev > 1e-8:
        raise densmat.NotHermitian(dev)
    return _factor_from_eigh(*np.linalg.eigh((m + m.conj().T) / 2), rel_tol, scale)


def _factor_from_eigh(evals, evecs, rel_tol, scale):
    """:func:`factor_psd` from the ascending eigendecomposition of h."""
    if scale is None:
        scale = max(evals.max(), 0.0) if evals.size else 0.0
    if evals.size and evals[0] < -max(rel_tol, 1e-8) * max(scale, 1e-300):
        raise NotPSD(evals[0])
    keep = evals > rel_tol * max(scale, 1e-300)
    lam = evals[keep][::-1]
    vecs = evecs[:, keep][:, ::-1]
    cols = [gram.phase_fix(vecs[:, i]) * np.sqrt(lam[i]) for i in range(lam.size)]
    if not cols:
        return np.zeros((evecs.shape[0], 0), dtype=complex)
    return np.column_stack(cols)


@dataclass(frozen=True)
class CanonicalForm2xN:
    """Blocks of the transformed state plus the factors of both positivity gaps.

    ``lam`` is N x p with lam lam^dag = A - B B^dag; ``lam_tilde`` is
    p~ x N with lam_tilde^dag lam_tilde = A - B^dag B, or None when the state
    is not PPT.  ``c_inv_half`` is the applied local map, ``c_half`` its
    inverse (both act on the B side only).
    """

    n: int
    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray
    lam_tilde: np.ndarray | None
    c_half: np.ndarray
    c_inv_half: np.ndarray
    ppt: bool
    a_minus_btb_min_eig: float

    @property
    def p(self) -> int:
        return self.lam.shape[1]

    @property
    def p_tilde(self) -> int | None:
        return None if self.lam_tilde is None else self.lam_tilde.shape[0]


def canonical_form(rho: DensityMatrix, sing_tol: float = 1e-12,
                   rank_tol: float = densmat.RANK_TOL) -> CanonicalForm2xN:
    """Bring a 2xN state to the form [[A, B], [B^dag, I]] via I (x) C^{-1/2}."""
    if rho.dim_a != 2:
        raise InputError(f"canonical form needs dim_a = 2, got {rho.dim_a}")
    n = rho.dim_b
    c = rho.block(1, 1)
    evals, evecs = np.linalg.eigh((c + c.conj().T) / 2)
    top = max(evals.max(), 0.0)
    if evals[0] <= sing_tol * max(top, 1e-300):
        raise SingularC(float(evals[0]))
    c_inv_half = (evecs / np.sqrt(evals)) @ evecs.conj().T
    c_half = (evecs * np.sqrt(evals)) @ evecs.conj().T
    t = np.kron(np.eye(2), c_inv_half)
    rc = t @ rho.mat @ t
    rc = (rc + rc.conj().T) / 2
    a = rc[:n, :n]
    b = rc[:n, n:]
    a_scale = max(float(np.abs(a).max()), 1e-300)
    gap_rho = a - b @ b.conj().T
    lam = factor_psd((gap_rho + gap_rho.conj().T) / 2, rel_tol=rank_tol, scale=a_scale)
    gap = a - b.conj().T @ b
    gap = (gap + gap.conj().T) / 2
    gap_evals, gap_evecs = np.linalg.eigh(gap)
    gap_min = float(gap_evals[0])
    ppt = gap_min >= -1e-9 * a_scale
    lam_tilde = (_factor_from_eigh(gap_evals, gap_evecs, rank_tol, a_scale).conj().T
                 if ppt else None)
    return CanonicalForm2xN(n, a, b, lam, lam_tilde, c_half, c_inv_half,
                            ppt, gap_min)


@dataclass(frozen=True)
class ExtensionProblem:
    """The data of the completion problem: B fixed, Lam fixed up to column
    mixing, Lamt fixed up to row mixing, S free."""

    b: np.ndarray
    lam: np.ndarray        # N x p
    lam_tilde0: np.ndarray  # p~ x N

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def p(self) -> int:
        return self.lam.shape[1]

    @property
    def p_tilde(self) -> int:
        return self.lam_tilde0.shape[0]

    @property
    def q(self) -> int:
        return max(self.p, self.p_tilde)

def known_part(cf: CanonicalForm2xN) -> ExtensionProblem:
    """Completion data from a canonical form; the state must be PPT."""
    if cf.lam_tilde is None:
        raise NotPPT(
            f"A - B^dag B has eigenvalue {cf.a_minus_btb_min_eig:.3e} < 0; no completion exists")
    return ExtensionProblem(cf.b, cf.lam, cf.lam_tilde)


@dataclass(frozen=True)
class ExtensionSolution:
    """A candidate completion: the realized blocks, the assembled matrix and
    its normality residual (relative, ||[M, M^dag]||_F / ||M||_F^2)."""

    matrix: np.ndarray            # (N+q) x (N+q)
    s_block: np.ndarray           # q x q
    r_block: np.ndarray           # N x q, R R^dag = Lam Lam^dag
    t_block: np.ndarray           # q x N, T^dag T = Lamt^dag Lamt
    normality_residual: float
    equation_residual: float
    accepted: bool
    method: str
    mixing: dict


def assemble(bmat: np.ndarray, r: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    n = bmat.shape[0]
    q = s.shape[-1]
    m = np.zeros(s.shape[:-2] + (n + q, n + q), dtype=complex)  # a stack for stacked R, S
    m[..., :n, :n] = bmat
    if q:
        m[..., :n, n:] = r
        m[..., n:, :n] = t
        m[..., n:, n:] = s
    return m


def rank_n_test(cf: CanonicalForm2xN, tol: float = 1e-9) -> tuple[float, bool]:
    """For rank-N states the completion is B itself; separability reduces to
    [B, B^dag] = 0.  Returns (relative commutator residual, verdict)."""
    if cf.p != 0:
        raise RankMismatch(f"state has rank N + {cf.p}, not N")
    residual = sep.normality_residual(cf.b)
    return residual, residual <= tol


def self_pt_extension(cf: CanonicalForm2xN, tol: float = 1e-9) -> ExtensionSolution:
    """For rho = rho^{T_A} (Hermitian B), S = 0 completes [[B, Lam], [Lam^dag, 0]]
    to a Hermitian, hence normal, matrix."""
    dev = densmat.hermitian_deviation(cf.b)
    if dev > tol:
        raise NotSelfPT(f"B deviates from Hermitian by {dev:.3e}")
    ep = known_part(cf)
    bh = (cf.b + cf.b.conj().T) / 2
    r = ep.lam
    t = ep.lam.conj().T
    s = np.zeros((ep.p, ep.p), dtype=complex)
    m = assemble(bh, r, t, s)
    res = sep.normality_residual(m)
    return ExtensionSolution(m, s, r, t, res, res, res <= 1e-8, "self_pt", {})


def _rank1_vectors(ep: ExtensionProblem) -> tuple[np.ndarray, np.ndarray]:
    if ep.p != 1 or ep.p_tilde != 1:
        raise InputError(f"need p = p~ = 1, got ({ep.p}, {ep.p_tilde})")
    return ep.lam[:, 0], ep.lam_tilde0.conj().T[:, 0]


def solve_extension_55(ep: ExtensionProblem, accept_tol: float = 1e-8) -> ExtensionSolution:
    """Rank pattern (N+1, N+1): decide existence of a scalar completion.

    Normality of [[B, |Lam>], [<Lamt|, s]] reduces (given the positivity
    constraint) to (B - s)|Lamt> = mu (B^dag - s*)|Lam> with |mu| = 1 carrying
    the relative phase of the two factors.  Substituting a = mu^{-1/2},
    c = a*s makes the equation real-linear and homogeneous in (a, c); the
    smallest singular vector decides solvability exactly.
    """
    bmat = ep.b
    lvec, tvec = _rank1_vectors(ep)
    bt = bmat @ tvec
    bl = bmat.conj().T @ lvec
    cols = [bt - bl, 1j * (bt + bl), lvec - tvec, -1j * (lvec + tvec)]
    sys = np.array([[c.real, c.imag] for c in cols]).reshape(4, -1).T
    _, svals, vh = np.linalg.svd(sys)
    scale = float(np.linalg.norm(bmat) * (np.linalg.norm(lvec) + np.linalg.norm(tvec)))
    kernel = vh[-1]
    a = kernel[0] + 1j * kernel[1]
    c = kernel[2] + 1j * kernel[3]
    if abs(a) < 1e-8:
        # a ~ 0 forces c T = c* L; only the trivial kernel unless the factors
        # are parallel, so report the unattainable direction as no solution
        if svals[-2] < 1e-10 * max(svals[0], 1e-300):
            other = vh[-2]
            a = other[0] + 1j * other[1]
            c = other[2] + 1j * other[3]
    if abs(a) < 1e-12:
        return ExtensionSolution(
            assemble(bmat, lvec[:, None], tvec[None, :].conj(), np.zeros((1, 1))),
            np.zeros((1, 1)), lvec[:, None], tvec[None, :].conj(),
            1.0, float(svals[-1]), False, "rank1_linear", {})
    a, c = a / abs(a), c / abs(a)
    s = c / a
    mu = np.conj(a) ** 2
    eq = (bmat - s * np.eye(ep.n)) @ tvec - mu * (bmat.conj().T - np.conj(s) * np.eye(ep.n)) @ lvec
    eq_res = float(np.linalg.norm(eq))
    half = np.sqrt(mu)
    r = (half * lvec)[:, None]
    t = (np.conj(half) * tvec)[None, :].conj()
    m = assemble(bmat, r, t, np.array([[s]]))
    norm_res = sep.normality_residual(m)
    accepted = eq_res <= accept_tol * max(scale, 1e-300)
    return ExtensionSolution(m, np.array([[s]]), r, t, norm_res, eq_res, accepted,
                             "rank1_linear", {"s": s, "mu": mu})


@functools.lru_cache(maxsize=None)
def _unit_basis(rows: int, cols: int) -> np.ndarray:
    """Unit matrices v E_ij, v = 1, i, in the order of a complex matrix's floats."""
    eye = np.eye(rows * cols)
    basis = np.stack([eye, 1j * eye], axis=1).reshape(-1, rows, cols)
    basis.flags.writeable = False
    return basis


def _offdiag_block_lstsq(bmat, r, t, q):
    """S minimizing ||B T^dag + R S^dag - B^dag R - T^dag S||_F (real-linear);
    one batched product maps the real directions of S to the system columns."""
    rhs = bmat.conj().T @ r - bmat @ t.conj().T
    basis = _unit_basis(q, q)
    eff = (r @ basis.conj().swapaxes(1, 2) - t.conj().T @ basis).reshape(2 * q * q, -1)
    sysm = np.concatenate([eff.real, eff.imag], axis=1).T
    target = np.concatenate([rhs.real.ravel(), rhs.imag.ravel()])
    coef, *_ = np.linalg.lstsq(sysm, target, rcond=None)
    return coef.view(complex).reshape(q, q)


_GRID_56 = (12, 12, 8)  # theta, phi, gamma cells of the (5,6) sphere scan
# bound on the scan's condition number above which its normal equations,
# whose error grows as cond^2 eps, give way to a pseudo-inverse
_SCAN_56_MAX_COND = 1e4


@functools.lru_cache(maxsize=None)
def _grid_56_cells() -> np.ndarray:
    """Unit vectors (alpha, beta) = (cos theta, sin theta e^{i phi}) e^{i gamma}
    of the (5,6) sphere scan, one row per cell, theta slowest, gamma fastest.
    At theta = 0 every phi gives the same cells, so only phi = 0 is kept."""
    nth, nph, nga = _GRID_56
    theta, phi, gamma = np.meshgrid(np.linspace(0, np.pi / 2, nth),
                                    np.linspace(0, 2 * np.pi, nph, endpoint=False),
                                    np.linspace(0, 2 * np.pi, nga, endpoint=False),
                                    indexing="ij")
    cells = np.stack([np.cos(theta) + 0j, np.sin(theta) * np.exp(1j * phi)], axis=-1)
    cells = np.delete((cells * np.exp(1j * gamma)[..., None]).reshape(-1, 2),
                      np.s_[nga:nph * nga], axis=0)
    cells.flags.writeable = False
    return cells


@functools.lru_cache(maxsize=None)
def _grid_56_monomials() -> tuple[np.ndarray, np.ndarray]:
    """x = (1, c as floats) and x_k x_l per cell c of :func:`_grid_56_cells`."""
    x = np.column_stack([np.ones(len(_grid_56_cells())), _grid_56_cells().view(float)])
    xx = (x[:, :, None] * x[:, None, :]).reshape(len(x), -1)
    x.flags.writeable = xx.flags.writeable = False
    return x, xx


def _scan_56(ep: ExtensionProblem) -> tuple[int, np.ndarray]:
    """Normality residual of the completion M = [[B, Lam c], [Lamt, S]] in
    every cell c = (alpha, beta) of :func:`_grid_56_cells`, S fitted as in
    :func:`_offdiag_block_lstsq`, and the index of the first least one.

    The fit's real system and target are affine in x = (1, c as floats), so
    every cell's normal equations come from one product of the monomials
    x_k x_l, cached with x (:func:`_grid_56_monomials`).  The condition number
    is at most (|Lam| + |Lamt|_2) / smin([Lam, Lamt^dag]) for every unit c;
    above _SCAN_56_MAX_COND (a singular system included) a pseudo-inverse of
    the stacked systems fits instead.  No M is assembled.  The blocks of
    [M, M^dag] are, top left, D + (|c|^2 - 1) Lam Lam^dag with D the rounding
    of BB^dag - B^dag B + Lam Lam^dag - Lamt^dag Lamt = 0; off the diagonal,
    the fit residual, one product over monomials and directions of S; bottom
    right, Lamt Lamt^dag + SS^dag - S^dag S - |Lam|^2 conj(c) c^T, in closed
    form from the four entries of S.
    """
    bmat, lvec, tmat = ep.b, ep.lam[:, 0], ep.lam_tilde0
    bh, th = bmat.conj().T, tmat.conj().T
    cells, (x, xx) = _grid_56_cells(), _grid_56_monomials()
    units = np.array([[0, 0], [1, 0], [1j, 0], [0, 1], [0, 1j]])  # c = x @ units
    # R E^dag = Lam (E* c)^T for each unit matrix E of the basis
    basis = _unit_basis(2, 2)
    eff = lvec[:, None] * np.tensordot(units, basis.conj(), axes=(1, 2))[:, :, None, :]
    eff[0] -= th @ basis
    rhs = (bh @ lvec)[:, None] * units[:, None, :]
    rhs[0] -= bmat @ th
    eff, rhs = eff.reshape(5, len(basis), -1), rhs.reshape(5, -1)
    h, tt = (np.concatenate([a.real, a.imag], axis=-1) for a in (eff, rhs))
    top = np.linalg.norm(lvec) + np.linalg.norm(tmat, 2)
    smin = np.linalg.svd(np.column_stack([lvec, th]), compute_uv=False)[-1]
    if top <= _SCAN_56_MAX_COND * smin:
        hh = (h[:, None] @ h.swapaxes(1, 2)).reshape(25, -1)  # h[k] h[l]^T
        coef = np.linalg.solve((xx @ hh).reshape(-1, 8, 8),
                               (xx @ (h[:, None] @ tt[..., None]).reshape(25, -1))[..., None])
    else:
        coef = np.linalg.pinv(np.tensordot(x, h, axes=1).swapaxes(1, 2)) @ (x @ tt)[..., None]
    coef = coef[..., 0]
    tr = (x[:, :, None] * coef[:, None]).reshape(len(x), -1) @ h.reshape(-1, h.shape[-1]) - x @ tt
    s, s2 = coef.view(complex), (coef ** 2).reshape(-1, 4, 2).sum(2)  # S row-major, |S_ij|^2
    ab2, l2 = (x[:, 1:] ** 2).reshape(-1, 2, 2).sum(2), np.vdot(lvec, lvec).real
    c2, g, skew = ab2.sum(1) - 1, tmat @ th, s[:, 0] - s[:, 3]
    d = bmat @ bh - bh @ bmat - th @ tmat + np.outer(lvec, lvec.conj())
    br_diag = g.diagonal().real + np.multiply.outer(s2[:, 1] - s2[:, 2], [1, -1]) - l2 * ab2
    br_off = (g[0, 1] + skew * s[:, 2].conj() - s[:, 1] * skew.conj()
              - l2 * cells[:, 0].conj() * cells[:, 1])
    comm2 = (np.vdot(d, d).real + c2 * (2 * (lvec.conj() @ d @ lvec).real + c2 * l2 ** 2)
             + 2 * (tr ** 2).sum(1) + (br_diag ** 2).sum(1) + 2 * np.abs(br_off) ** 2)
    m2 = (np.vdot(bmat, bmat) + np.vdot(tmat, tmat)).real + l2 * (c2 + 1)
    res = np.sqrt(comm2) / (m2 + s2.sum(1))
    return int(np.argmin(res)), res


def solve_extension_56(ep: ExtensionProblem, accept_tol: float = 1e-6) -> ExtensionSolution:
    """Rank pattern (N+1, N+2): upper-right block is |Lam>(alpha, beta).

    The two off-diagonal normality equations are real-linear in S for a fixed
    unit vector (alpha, beta), so we scan the sphere (relative phase included;
    the leftover overall phase cannot be gauged once the Lamt factor is
    pinned), fitting S by least squares in every cell at once
    (:func:`_scan_56`).  The best cell, whose normality residual ``mixing``
    holds as ``scan_residual``, is the pinned completion at
    z = conj((alpha, beta))^T, since T = Lamt here, and the descent of
    :func:`solve_extension_general` polishes it over (z, S).
    """
    if ep.p != 1 or ep.p_tilde != 2:
        raise InputError(f"need (p, p~) = (1, 2), got ({ep.p}, {ep.p_tilde})")
    bmat = ep.b
    lvec = ep.lam[:, 0]
    cell, scan = _scan_56(ep)
    best_ab = _grid_56_cells()[cell]

    start, blocks, residual, jacobian = _pinned_completion(ep)
    x, nfev = _descend(residual, jacobian, start(best_ab.conj()[:, None])[None])
    r, t, s = blocks(x[0])
    m = assemble(bmat, r, t, s)
    res = sep.normality_residual(m)
    alpha, beta = lvec.conj() @ r / (lvec.conj() @ lvec)
    return ExtensionSolution(m, s, r, t, res, float(np.linalg.norm(residual(x))),
                             res <= accept_tol, "alpha_beta_grid",
                             {"alpha": alpha, "beta": beta, "nfev": int(nfev[0]),
                              "scan_residual": float(scan[cell])})


def _pinned_completion(ep: ExtensionProblem):
    """[M, M^dag] for M = [[B, Lam Q(z)^dag], [[Lamt; 0], S]] as a residual in
    x = (z, S) viewed as floats, Q(z) the polar factor of a free q x p z.
    Returns (start, blocks, residual, jacobian): start(z) is x with S fitted
    to the off-diagonal equation, blocks(x) is (R, T, S); residual and
    jacobian take and give stacks, x of shape (lanes, n_x)."""
    n, p, q = ep.n, ep.p, ep.q
    t = np.vstack([ep.lam_tilde0, np.zeros((q - ep.p_tilde, n))]).astype(complex)
    dz, ds, lam_h = _unit_basis(q, p), _unit_basis(q, q), ep.lam.conj().T
    # z's directions as columns [i, (dir, j)]; dM's last q columns per dir
    dz_cols = dz.transpose(1, 0, 2).reshape(q, -1)
    d_fixed = np.zeros((1, len(dz) + len(ds), n + q, q), dtype=complex)
    d_fixed[0, len(dz):, n:] = ds

    def split(x):
        xc = x.view(complex)
        return (xc[..., :q * p].reshape(*x.shape[:-1], q, p),
                xc[..., q * p:].reshape(*x.shape[:-1], q, q))

    def polar(z):  # the SVD of z and R = Lam Q(z)^dag
        u, sig, vh = np.linalg.svd(z, full_matrices=False)
        return (u, sig, vh), ep.lam @ (u @ vh).conj().swapaxes(-1, -2)

    def start(z):
        s = _offdiag_block_lstsq(ep.b, polar(z)[1], t, q)
        return np.concatenate([z.ravel(), s.ravel()]).view(float)

    def blocks(x):
        z, s = split(x)
        return polar(z)[1], t, s

    # the last residual call's lanes by the bytes of their x, and its work:
    # the SVD of z and M, which the Jacobian at the same x reuses
    seen, work = {}, ()

    def residual(x):
        nonlocal seen, work
        z, s = split(x)
        svd, r = polar(z)
        m = assemble(ep.b, r, t, s)
        seen, work = {row.tobytes(): i for i, row in enumerate(x)}, (*svd, m)
        mh = m.conj().swapaxes(1, 2)
        return (m @ mh - mh @ m).view(float).reshape(len(x), -1)

    def jacobian(x):
        """Columns d vec[M, M^dag] / dx, all lanes and directions in one pass.

        With dM = [[0, dR], [0, dS]], d[M, M^dag] = X + X^dag for
        X = dM M^dag - M^dag dM.  The polar factor of z = U Sig W^dag moves by
        dQ = (I - U U^dag) dz W Sig^-1 W^dag + U K W^dag, where
        K_ij = (A_ij - conj(A_ji)) / (sig_i + sig_j) and A = U^dag dz W.
        Directions ride in a middle axis: one matrix product per lane.  If
        the last residual call saw every lane's x, its SVD and M serve, uncopied in its order."""
        lanes = len(x)
        z, s = split(x)
        idx = [seen.get(row.tobytes()) for row in x]
        if None in idx:
            (u, sig, wh), r = polar(z)
            m = assemble(ep.b, r, t, s)
        else:
            u, sig, wh, m = work if idx == list(range(len(work[0]))) else (a[idx] for a in work)
        w = wh.conj().swapaxes(1, 2)
        uh_dz = u.conj().swapaxes(1, 2) @ dz_cols
        a = (uh_dz.reshape(lanes, -1, p) @ w).reshape(lanes, p, -1, p)
        k = (a - a.conj().transpose(0, 3, 2, 1)) / (sig[:, :, None, None] + sig[:, None, None, :])
        dq = ((dz_cols - u @ uh_dz).reshape(lanes, -1, p) @ (w / sig[:, None, :])
              + (u @ k.reshape(lanes, p, -1)).reshape(lanes, -1, p)) @ wh
        d = d_fixed.repeat(lanes, axis=0)
        dr_h = (dq @ lam_h).reshape(lanes, q, -1, n)  # dR^dag = dQ Lam^dag
        d[:, :len(dz), :n] = dr_h.conj().transpose(0, 2, 3, 1)
        mh = m.conj().swapaxes(1, 2)
        xm = (d.reshape(lanes, -1, q) @ mh[:, n:]).reshape(lanes, -1, n + q, n + q)
        mh_d = mh @ d.transpose(0, 2, 1, 3).reshape(lanes, n + q, -1)
        xm[..., n:] -= mh_d.reshape(lanes, n + q, -1, q).transpose(0, 2, 1, 3)
        dc = xm + xm.conj().swapaxes(2, 3)
        return dc.view(float).reshape(lanes, len(d_fixed[0]), -1).swapaxes(1, 2)

    return start, blocks, residual, jacobian


# Levenberg-Marquardt constants of :func:`_descend`
_LM_TAU = 1e-3         # first damping, relative to max diag(J^T J)
_LM_MU_MIN = 1e-150    # damping floor, relative to max diag(J^T J)
_LM_MU_MAX = 1e20      # damping cap, relative to max diag(J^T J)
_LM_GTOL = 1e-15       # gradient stop, relative to max|J^T J|
_LM_XTOL = 1e-15       # step stop, relative to |x|
_LM_FTOL = 1e-15       # decrease stop, relative to |f|^2
_LM_MAX_NFEV = 4000    # residual evaluations per descent
_LM_STALL = 1e-3       # stall stop: least decrease of |f|^2, relative to it, ...
_LM_STALL_WINDOW = 10  # ... over this many residual evaluations


def _descend(residual, jacobian, x0) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt on a pinned-completion residual from a stack of
    starts x0, shape (lanes, n_x); returns x and the residual evaluations.

    Each step solves (J^T J + mu I) dx = -J^T f; mu starts at _LM_TAU max
    diag(J^T J) and follows Nielsen's update (shrunk by the gain ratio on an
    accepted step, floored at _LM_MU_MIN max diag(J^T J); times nu, nu
    doubled, on a rejected one, capped at _LM_MU_MAX max diag(J^T J)); a
    non-finite trial residual is a rejection.  A lane stops when max|J^T f|
    falls to _LM_GTOL max|J^T J|, |dx| to _LM_XTOL |x| (dx = 0 where the
    damped system is exactly singular, once mu is below its rounding) or an
    accepted decrease of |f|^2 to _LM_FTOL of it, when the capped damping
    still rejects, when |f|^2 has stalled (fallen by less than _LM_STALL of
    itself over its last _LM_STALL_WINDOW evaluations, rejected trials
    included), or after _LM_MAX_NFEV evaluations, and leaves the stack.
    Converging lanes cut |f|^2 by far more than that per window; the stall
    stop ends those heading for a nonzero minimum, which certify nothing.
    The damping and the history are plain floats per lane, so a lane steps
    as it would alone, and the same x0 gives the same x even where the gauge
    makes J rank deficient; the damping keeps the step out of J's null space.
    """
    def dots(a, b):  # per lane, as floats
        return (a[:, None] @ b[..., None]).ravel().tolist()

    def normal_equations(x, f):  # J^T J, J^T f; max diag(J^T J), gradient stop
        jac = jacobian(x)
        jtj, grad = jac.swapaxes(1, 2) @ jac, jac.swapaxes(1, 2) @ f[..., None]
        top = jtj.diagonal(axis1=1, axis2=2).max(axis=1)
        return jtj, grad, top.tolist(), (~(np.abs(grad).max(axis=(1, 2)) > _LM_GTOL * top)).tolist()

    x = np.array(x0, dtype=float)
    out, evals = np.empty_like(x), np.empty(len(x), dtype=int)
    lanes, nfev = list(range(len(x))), 1  # nfev: evaluations of every live lane
    f = residual(x)
    cost = dots(f, f)
    past = [deque([c], maxlen=_LM_STALL_WINDOW + 1) for c in cost]  # |f|^2 per evaluation
    jtj, grad, top, stop = normal_equations(x, f)
    mu, nu = [_LM_TAU * t for t in top], [2.0] * len(x)
    eye = np.eye(x.shape[1])
    while True:
        stop = [s or nfev >= _LM_MAX_NFEV for s in stop]
        if any(stop):
            done = [lane for lane, s in zip(lanes, stop) if s]
            out[done], evals[done] = x[stop], nfev
            keep = [i for i, s in enumerate(stop) if not s]
            if not keep:
                return out, evals
            lanes, cost, top, mu, nu, past = ([a[i] for i in keep]
                                              for a in (lanes, cost, top, mu, nu, past))
            x, f, jtj, grad = x[keep], f[keep], jtj[keep], grad[keep]
        damped = jtj + np.multiply.outer(mu, eye)
        try:
            dx = np.linalg.solve(damped, -grad)[..., 0]
        except np.linalg.LinAlgError:  # a lane with an exactly singular system takes no step
            dx, regular = np.zeros_like(x), np.linalg.slogdet(damped)[0] != 0
            dx[regular] = np.linalg.solve(damped[regular], -grad[regular])[..., 0]
        step = dots(dx, dx)
        stop = [d <= (_LM_XTOL * (r ** 0.5 + _LM_XTOL)) ** 2 for d, r in zip(step, dots(x, x))]
        if any(stop):
            continue
        x_new = x + dx
        f_new = residual(x_new)
        nfev += 1
        moved = []
        for i, (c, c_new, slope) in enumerate(zip(cost, dots(f_new, f_new), dots(dx, grad[..., 0]))):
            if c_new < c:  # never true of a non-finite trial residual
                gain = (c - c_new) / (mu[i] * step[i] - slope)
                mu[i] *= max(1 / 3, 1 - (2 * gain - 1) ** 3)
                nu[i], cost[i], stop[i] = 2.0, c_new, c - c_new <= _LM_FTOL * c
                moved.append(i)
            else:
                cap = _LM_MU_MAX * top[i]
                stop[i] = mu[i] >= cap
                mu[i], nu[i] = min(mu[i] * nu[i], cap), 2 * nu[i]
            past[i].append(cost[i])
            if len(past[i]) > _LM_STALL_WINDOW and past[i][0] - cost[i] < _LM_STALL * past[i][0]:
                stop[i] = True
        if len(moved) == len(lanes):
            x, f = x_new, f_new
        elif moved:
            x[moved], f[moved] = x_new[moved], f_new[moved]
        fresh = [i for i in moved if not stop[i]] if nfev < _LM_MAX_NFEV else []
        if fresh:
            sel = slice(None) if len(fresh) == len(lanes) else fresh
            jtj[sel], grad[sel], new_top, flat = normal_equations(x[sel], f[sel])
            for i, t, g in zip(fresh, new_top, flat):
                top[i], stop[i], mu[i] = t, g, max(mu[i], _LM_MU_MIN * t)


def solve_extension_general(ep: ExtensionProblem, budget: int = 12, seed: int = 0,
                            accept_tol: float = 1e-8,
                            target: float = 1e-12) -> ExtensionSolution:
    """Minimize ||[M, M^dag]||_F over R = Lam V^dag, T = [Lamt; 0], S free.

    T is pinned by the U(q) gauge: diag(I, U) maps completions to completions
    and takes any admissible T to [Lamt; 0].  Levenberg-Marquardt from
    V = [I; 0]; if that misses ``target``, the other ``budget - 1`` starts,
    random perturbations, descend as one stack, and the first at ``target``
    is kept, else the least residual.  ``mixing`` has ``starts`` (1 or
    ``budget``) and ``nfev``, the residual evaluations of all starts.  A
    vanishing minimum certifies the completion; a nonzero one claims no
    nonexistence.
    """
    n, p, q = ep.n, ep.p, ep.q
    if q == 0:
        res = sep.normality_residual(ep.b)
        return ExtensionSolution(ep.b.copy(), np.zeros((0, 0), dtype=complex),
                                 np.zeros((n, 0), dtype=complex), np.zeros((0, n), dtype=complex),
                                 res, res, res <= accept_tol, "rank_n", {})

    rng = np.random.default_rng(seed)
    start, blocks, residual, jacobian = _pinned_completion(ep)
    z0 = np.eye(q, p, dtype=complex)
    xs, nfev = _descend(residual, jacobian, start(z0)[None])
    if sep.normality_residual(assemble(ep.b, *blocks(xs[0]))) > target and budget > 1:
        zs = [z0 + rng.normal(size=(q, p)) + 1j * rng.normal(size=(q, p))
              for _ in range(budget - 1)]
        more = _descend(residual, jacobian, np.stack([start(z) for z in zs]))
        xs, nfev = np.concatenate([xs, more[0]]), np.concatenate([nfev, more[1]])
    ms = assemble(ep.b, *blocks(xs))
    res = [sep.normality_residual(m) for m in ms]
    best = next((i for i, r in enumerate(res) if r <= target), int(np.argmin(res)))
    r, t, s = blocks(xs[best])
    return ExtensionSolution(ms[best], s, r, t, res[best],
                             float(np.linalg.norm(residual(xs[best:best + 1]))),
                             res[best] <= accept_tol, "multistart_lm",
                             {"starts": len(xs), "nfev": int(nfev.sum())})


# ---------------------------------------------------------------------------
# From a completion back to a certificate of the original state.

def companion_gram(cf: CanonicalForm2xN, r_block: np.ndarray) -> gram.GramSystem:
    """Gram system of the A-swapped canonical state for the (N+q)-term
    decomposition |0>|k> + |1>B|k> plus |1>|R_j>; its w_0n are the standard
    basis vectors, which is what pins the known part of the completion."""
    n = cf.n
    q = r_block.shape[1]
    k = n + q
    terms = np.zeros((k, 2 * n), dtype=complex)
    for kk in range(n):
        terms[kk, kk] = 1.0
        terms[kk, n:] = cf.b[:, kk]
    for j in range(q):
        terms[n + j, n:] = r_block[:, j]
    return gram.GramSystem(2, n, terms.conj())


def swapped_canonical_matrix(cf: CanonicalForm2xN) -> np.ndarray:
    """[[I, B^dag], [B, A]]: the canonical state with the A-side basis swapped."""
    n = cf.n
    top = np.hstack([np.eye(n), cf.b.conj().T])
    bot = np.hstack([cf.b, cf.a])
    return np.vstack([top, bot])


def extension_to_decomposition(cf: CanonicalForm2xN, sol: ExtensionSolution,
                               rho: DensityMatrix, tol: float = 1e-8
                               ) -> tuple[sep.SeparableDecomposition, sep.FfcnmReport]:
    """Extract the product decomposition certified by a completion.

    The adjoint of the completion maps w_0n to w_1n on the companion Gram
    system of the swapped canonical state; joint diagonalization yields its
    certificate, and the local maps (A-side swap, then I (x) C^{1/2}) carry
    the product vectors back to the original state.
    """
    g = companion_gram(cf, sol.r_block)
    fam = sep.FfcnmFamily(g.k, {(1, 0): sol.matrix.conj().T})
    report = sep.verify_ffcnm(fam, g)
    cert_hat = sep.extract_certificate(fam, g)
    sd_hat = sep.certificate_to_decomposition(cert_hat)
    phis = sd_hat.phis[:, ::-1]            # undo the A-side swap
    psis = sd_hat.psis @ cf.c_half.T       # psi -> C^{1/2} psi
    sd = sep.SeparableDecomposition(2, cf.n, phis, psis)
    res = sd.residual(rho)
    if res > tol * max(1.0, float(np.abs(rho.mat).max())):
        raise sep.CertificateInvalid(
            f"extension-derived decomposition misses rho by {res:.3e}")
    return sd, report


def deflate_b_support(rho: DensityMatrix, rel_tol: float = densmat.RANK_TOL
                      ) -> tuple[DensityMatrix, np.ndarray]:
    """Restrict the B side to the support of tr_A rho.

    Returns the reduced state and the isometry Y with psi = Y psi' mapping
    reduced B-side vectors back to the original space.
    """
    n = rho.dim_b
    rho_b = rho.block(0, 0) + rho.block(1, 1)
    evals, evecs = np.linalg.eigh((rho_b + rho_b.conj().T) / 2)
    keep = evals > rel_tol * max(evals.max(), 1e-300)
    y = evecs[:, keep][:, ::-1]
    if y.shape[1] == n:
        return rho, np.eye(n, dtype=complex)
    iso = np.kron(np.eye(2), y)
    reduced = iso.conj().T @ rho.mat @ iso
    red = densmat.validate_density(reduced, 2, y.shape[1], tol=rho.tol,
                                   unnormalized=rho.unnormalized)
    return red, y
