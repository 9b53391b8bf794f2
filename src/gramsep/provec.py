"""Product vectors in ranges and kernels of 2xN states.

A product vector |e, f> with e = |0> + alpha |1> lies in the range of rho iff
it annihilates every kernel vector, and the range criterion additionally asks
|e*, f> to lie in the range of the partial transpose.  Stacking the kernel
constraints gives k rows linear in alpha (from ker rho) and k' rows linear in
conj(alpha) (from ker rho^{T_A}); a nonzero f exists iff the stack is rank
deficient.  By the kernel dimensions (k, k') of a 2xN state:

* k + k' < N: every alpha works, a continuum (DegenerateSystem).
* k + k' = N: one determinant D(alpha, conj alpha) = 0, paired with its
  conjugate; more than k^2 + k'^2 validated hits raise DegenerateSystem.
* k + k' > N, 0 < k < N: two fixed real d x k' combinations of the k'
  rows, d = N - k, each complete the k rows to a determinant, and the two
  form the pair (the first and its conjugate where they are degenerate);
  validation against the full stack keeps the hits, at most 2dk.  Other k
  raise UnsupportedRankPattern.

One enumeration serves every case: the roots of the determinant of the
pair's Sylvester matrix in z = conj(alpha), from a companion pencil, seed a
Newton polish.  The seeds contain every product vector of rho's kind in
exact arithmetic.  In floating point two nearly coinciding A vectors can
lose one, so search_product_vectors says whether the search is isolated:
far from every such degeneracy.  Where it is, every term |e, f> of a product
decomposition of rho is a hit, so rho is separable iff it is a nonnegative
combination of the hit projectors: fit_product_cone fits it by one real
least-squares solve.
Where k + k' < N, subtract_product_projectors removes product projectors
at one fixed alpha until k + k' >= N, keeping rho and rho^{T_A} positive.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import densmat
from .densmat import DensityMatrix, InputError


class DegenerateSystem(RuntimeError):
    """Continuum of product vectors: determinant conditions vanish identically."""

    def __init__(self, message, continuum=False):
        super().__init__(message)
        self.continuum = continuum


class UnsupportedRankPattern(InputError):
    pass


class ProductVectorHit(NamedTuple):
    alpha: complex            # A-side parameter; inf encoded by at_infinity
    at_infinity: bool
    e: np.ndarray             # normalized C^2
    f: np.ndarray             # normalized C^N
    residual_range: float
    residual_pt_range: float

    def product_vector(self) -> np.ndarray:
        return np.outer(self.e, self.f).ravel()


def _row_blocks(rho: DensityMatrix):
    """Constraint rows: (psi0, psi1) with row = psi0 + alpha psi1 from ker rho,
    and (phi0, phi1) with row = phi0 + conj(alpha) phi1 from ker rho^{T_A}."""
    n = rho.dim_b
    ker, ker_pt = (evecs[:, ~densmat.nonzero_eigenvalues(evals)].conj().T  # k x 2N, k' x 2N
                   for evals, evecs in (rho.spectrum, rho.pt_spectrum))
    return ker[:, :n], ker[:, n:], ker_pt[:, :n], ker_pt[:, n:]


def _stack_rows(blocks, alpha):
    psi0, psi1, phi0, phi1 = blocks
    return np.vstack([psi0 + alpha * psi1, phi0 + np.conj(alpha) * phi1])


class _Margined(list):
    """A list with ``margin``, how far the computation behind it stays from
    a degenerate case: det S's peak coefficient over its scale for candidates,
    the gray-zone and null-space gaps for validated hits."""

    def __init__(self, items, margin: float):
        super().__init__(items)
        self.margin = margin


def _validate_candidates(blocks, candidates, tol):
    """Hits among the (alpha, at_infinity) candidates.  One batched SVD of the
    constraint stacks gives each candidate's f, the direction the stack
    annihilates best; a candidate is a hit when every kernel row of the
    stack annihilates it to ``tol``.  An empty stack admits every f.

    The margin is the smaller of the least residual of a rejected candidate
    and the least second-smallest singular value of a hit's stack (of its N,
    a missing row counting as 0): it is small where a candidate sits just
    above ``tol`` or a hit has a nearly 2-dim space of f."""
    psi0, psi1, phi0, phi1 = blocks
    e = np.array([(0.0, 1.0) if at_inf else (1.0, alpha) for alpha, at_inf in candidates],
                 dtype=complex)
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    e0, e1 = e[:, 0, None, None], e[:, 1, None, None]
    rows = e0 * psi0 + e1 * psi1                            # m x k x N
    rows_pt = e0.conj() * phi0 + e1.conj() * phi1           # m x k' x N
    _, svals, vh = np.linalg.svd(np.concatenate([rows, rows_pt], axis=1))
    f = vh[:, -1].conj()
    res = np.abs(rows @ f[:, :, None])[..., 0].max(axis=1, initial=0.0)
    res_pt = np.abs(rows_pt @ f[:, :, None])[..., 0].max(axis=1, initial=0.0)
    worst = np.maximum(res, res_pt)
    hit = worst <= tol
    n = psi0.shape[1]
    second = svals[:, n - 2] if svals.shape[1] >= n - 1 else np.zeros(len(svals))
    margin = np.where(hit, second, worst).min()
    return _Margined([ProductVectorHit(complex(np.inf) if at_inf else complex(alpha), at_inf,
                                       e[i], f[i], float(res[i]), float(res_pt[i]))
                      for i, (alpha, at_inf) in enumerate(candidates) if hit[i]], margin)


# Shift of _pencil_eigenvalues and the A-side alpha of
# subtract_product_projectors: a generic point, away from the points where
# structured states put product vectors (alpha = 0, roots of unity, infinity)
_PENCIL_SHIFT = 0.5377 + 0.3119j


def _pencil_eigenvalues(coeffs: np.ndarray, degrees) -> np.ndarray:
    """Finite roots alpha of det S(alpha), S(alpha) = sum_i alpha^i C_i with
    ``coeffs`` = (C_0, ..., C_d) and row r of degree degrees[r].

    The pencil A - alpha B acts on the powers alpha^j w_r (j < degrees[r])
    of a left null vector w: n rows state S(alpha)^T w = 0, the others
    alpha (alpha^j w_r) = alpha^(j+1) w_r.  Its size sum(degrees) is the
    degree of det S, so it has no infinite eigenvalues unless det S loses
    degree.  The eigenvalues mu of (A - s B)^{-1} B at the fixed shift s give
    alpha = s + 1/mu; those beyond |alpha| = 1e8 (mu ~ 0, numerically the
    alpha = infinity chart) are dropped."""
    degrees = np.asarray(degrees, dtype=int)
    n, size = len(degrees), int(degrees.sum())
    top = np.cumsum(degrees) - 1                  # index of alpha^(degrees[r] - 1) w_r
    a = np.zeros((size, size), dtype=complex)
    b = np.zeros((size, size), dtype=complex)
    for r, deg in enumerate(degrees):
        a[:n, top[r] - deg + 1:top[r] + 1] = -coeffs[:deg, r].T
        b[:n, top[r]] = coeffs[deg, r]
    lower = np.delete(np.arange(size), top)
    b[np.arange(n, size), lower] = 1
    a[np.arange(n, size), lower + 1] = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = _PENCIL_SHIFT + 1 / np.linalg.eigvals(np.linalg.solve(a - _PENCIL_SHIFT * b, b))
    return alpha[np.abs(alpha) < 1e8]


@functools.lru_cache(maxsize=None)
def _unity_powers(m: int) -> np.ndarray:
    """x^j for the m-th roots of unity x (rows) and j <= m: interpolation
    nodes and, conjugated over m, the inverse DFT; column 1 holds the x."""
    xs = np.exp(2j * np.pi * np.arange(m) / m)
    powers = xs[:, None] ** np.arange(m + 1)
    powers.setflags(write=False)
    return powers


def _det_bipoly(rows_a0, rows_a1, rows_b0, rows_b1, deg_a, deg_b):
    """Coefficients c[..., i, j] of det([A0 + x A1; B0 + y B1]) = sum c_ij x^i y^j,
    recovered by evaluation on roots-of-unity grids and inverse DFT.  Leading
    axes of B0 and B1 (stacked alternatives for the B rows) carry over to c."""
    na, nb = deg_a + 1, deg_b + 1
    xs, ys = _unity_powers(na)[:, 1], _unity_powers(nb)[:, 1]
    top = rows_a0 + xs[:, None, None] * rows_a1                            # na x ka x N
    bottom = rows_b0[..., None, :, :] + ys[:, None, None] * rows_b1[..., None, :, :]
    grid = bottom.shape[:-3] + (na, nb)                                    # ... x na x nb
    vals = np.linalg.det(np.concatenate(
        [np.broadcast_to(top[:, None], grid + top.shape[1:]),
         np.broadcast_to(bottom[..., None, :, :, :], grid + bottom.shape[-2:])], axis=-2))
    return np.fft.fft2(vals) / (na * nb)


def _coefficient_bounds(rows_a0, rows_a1, rows_b0, rows_b1):
    """Per alternative of the B rows, a bound on every coefficient of
    _det_bipoly's determinant: on |x| = |y| = 1 each row has norm at most
    |r0| + |r1|, so |det| is at most their product (Hadamard), and every
    coefficient is a mean of the determinant's values there."""
    a0, a1, b0, b1 = ((np.abs(r) ** 2).sum(-1) ** 0.5
                      for r in (rows_a0, rows_a1, rows_b0, rows_b1))
    return ((a0 + a1).prod() * (b0 + b1).prod(-1)).reshape(-1)


def _sorted_hits(hits):
    finite = sorted((h for h in hits if not h.at_infinity),
                    key=lambda h: (abs(h.alpha), np.angle(h.alpha)))
    inf = [h for h in hits if h.at_infinity]
    return finite + inf


class ProductVectorSearch(NamedTuple):
    hits: list              # ProductVectorHit, sorted by |alpha|, infinity last
    isolated: bool          # every product vector of rho's kind is among the hits


# Below this, a margin of the search (det S's peak coefficient over its scale,
# a rejected candidate's residual, the second-smallest singular value of a
# hit's stack) leaves it open whether a hit was lost to rounding
_ISOLATION_MARGIN = 1e-3


def search_product_vectors(rho: DensityMatrix, tol: float = 1e-8) -> ProductVectorSearch:
    """Product vectors |e, f> in the range of rho with |e*, f> in the PT range,
    and whether the search provably found all of them.

    Dispatch on the kernel dimensions (k, k'): k + k' < N is a continuum
    (reported via DegenerateSystem).  For k + k' = N (a single determinant
    condition) and for k + k' > N with 0 < k < N (two fixed real d x k'
    combinations of the PT rows, d = N - k), _candidates enumerates the
    roots of det S, S the Sylvester matrix of a pair of determinants, and
    validation against all k + k' rows keeps the hits.

    The seeds contain every product vector of rho's kind in exact
    arithmetic, but rounding can lose one: two A vectors nearly coinciding
    make det S nearly vanish, scatter the pencil's eigenvalues, or leave a
    hit polished just short of ``tol``.  ``isolated`` is set where none of
    this can have happened: det S's largest coefficient over its rows'
    scales exceeds _ISOLATION_MARGIN (in both cases; a fallback to the
    first determinant and its conjugate counts as 0), no candidate's
    residual lies between ``tol`` and that margin, and every hit's f is the
    only null direction of its stack by more than that margin.  Only then is
    the hit list complete.
    """
    if rho.dim_a != 2:
        raise InputError(f"product-vector search needs dim_a = 2, got {rho.dim_a}")
    hits = _search(_row_blocks(rho), tol)
    return ProductVectorSearch(list(hits), bool(hits.margin > _ISOLATION_MARGIN))


def find_product_vectors(rho: DensityMatrix, tol: float = 1e-8) -> list[ProductVectorHit]:
    """The hits of search_product_vectors: product vectors |e, f> in the
    range of rho with |e*, f> in the PT range.  Complete only where that
    search is isolated."""
    return search_product_vectors(rho, tol).hits


_PT_ROW_WEIGHTS_SEED = 1997
# default_rng(_PT_ROW_WEIGHTS_SEED).normal(size=16): 2 d k' <= 16 needs no numpy.random
_PT_ROW_DRAWS = (0.7868741785626053, -0.16100651348286793, -0.08270091370151621,
                 0.3966891798444247, 1.4076388459410376, 0.7459415724415613,
                 -0.38901419888360933, 0.9909583923891848, -0.6385157712293822,
                 0.24731609069584887, -1.4072450344825962, 1.5671319254037148,
                 2.723115255867018, 0.4532270711272075, -0.17841737777409952,
                 1.5704173879559262)


@functools.lru_cache(maxsize=None)
def _pt_row_weights(d: int, kp: int) -> np.ndarray:
    """The two fixed real weight blocks (2 x d x k'), each folding the PT rows into d."""
    draws = (_PT_ROW_DRAWS[:2 * d * kp] if 2 * d * kp <= len(_PT_ROW_DRAWS)
             else np.random.default_rng(_PT_ROW_WEIGHTS_SEED).normal(size=2 * d * kp))
    w = np.array(draws).reshape(2, d, kp)
    w.setflags(write=False)
    return w


def _search(blocks, tol):
    """Candidates for the kernel dimensions of ``blocks`` (_candidates),
    validated, deduped and held to their degree bound.  The hits' margin is
    the least of the candidates' and the validation's; a plain list from
    either (no margin stated) makes it 0."""
    psi0, psi1, phi0, phi1 = blocks
    (k, n), kp = psi0.shape, phi0.shape[0]

    if k + kp < n:
        raise DegenerateSystem(
            f"kernel dims ({k},{kp}) leave a null space at every alpha", continuum=True)

    if k + kp > n and not 0 < k < n:
        raise UnsupportedRankPattern(
            f"kernel dims ({k},{kp}) on 2x{n} are outside the implemented cases")

    candidates = _candidates(blocks, k, kp)
    checked = _validate_candidates(blocks, candidates, tol)
    margin = min(getattr(candidates, "margin", 0.0), getattr(checked, "margin", 0.0))
    # collapse duplicates after validation
    unique = []
    for h in _sorted_hits(checked):
        if h.at_infinity:
            dup = any(u.at_infinity for u in unique)
        else:
            dup = any((not u.at_infinity) and abs(u.alpha - h.alpha) <= 1e-6 * max(1.0, abs(h.alpha))
                      for u in unique)
        if not dup:
            unique.append(h)
    cap = 2 * (n - k) * k if k + kp > n else k * k + kp * kp
    if len(unique) > cap:
        raise DegenerateSystem(
            f"{len(unique)} isolated-looking solutions exceed the degree bound {cap}; "
            "the solution set is a continuum", continuum=True)
    return _Margined(unique, margin)


def _sylvester(p, q):
    """S(alpha) = sum_i alpha^i S[i], the Sylvester matrix in z of
    P(alpha, z) = sum_ij p[i, j] alpha^i z^j and Q likewise: deg_z Q shifted
    rows of P over deg_z P rows of Q.  Also returns the alpha-degree of each row."""
    ap, zp, aq, zq = p.shape[0] - 1, p.shape[1] - 1, q.shape[0] - 1, q.shape[1] - 1
    s = np.zeros((max(ap, aq) + 1, zp + zq, zp + zq), dtype=complex)
    for r in range(zq):
        s[:ap + 1, r, r:r + zp + 1] = p
    for r in range(zp):
        s[:aq + 1, zq + r, r:r + zq + 1] = q
    return s, [ap] * zq + [aq] * zp


def _candidates(blocks, k, kp):
    """Candidates (alpha, at_infinity) from a pair of polynomials
    D(alpha, z) = sum c_ij alpha^i z^j that vanish at every hit with
    z = conj(alpha): for k + k' = N the determinant D of the square
    constraint stack and its conjugate E(alpha, z) = sum conj(c_ij) z^i
    alpha^j; for k + k' > N the determinants D_1, D_2 that the k rows
    complete with two fixed real d x k' combinations of the PT rows,
    d = N - k, of degree d in z.
    Trailing coefficients below 1e-12 of every D's scale are trimmed (in z
    only for D: the folds keep theirs, without which S could be empty).

    A hit's alpha is a root of det S(alpha), S the Sylvester matrix in z of
    the pair, of degree da^2 + dz^2 <= k^2 + k'^2 for (D, E) and 2 d da <= 2dk
    for (D_1, D_2).  The eigenvalues of S's companion pencil, accurate where
    roots of det S's coefficients are not, seed _polished_roots on every D;
    alpha = infinity is one more candidate.  A D vanishing identically (below
    1e-12 of the Hadamard bound of its rows) or det S doing so (its
    coefficients, from deg + 1 roots of unity, below 1e-9 of the product of
    its rows' scales) makes the pair degenerate: the folds fall back to
    (D_1, E_1) with margin 0, and a degenerate (D, E) is a curve of roots
    (DegenerateSystem).  Else the margin is that coefficient peak."""
    psi0, psi1, phi0, phi1 = blocks
    folded = k + kp > psi0.shape[1]
    if folded:
        w = _pt_row_weights(psi0.shape[1] - k, kp)
        blocks, kp = (psi0, psi1, w @ phi0, w @ phi1), w.shape[1]
    coeffs = _det_bipoly(*blocks, k, kp).reshape(-1, k + 1, kp + 1)  # D, or D_1 and D_2
    mag = np.abs(coeffs)
    scale = mag.max(axis=(1, 2))
    flat = scale <= 1e-12 * _coefficient_bounds(*blocks)
    if flat[0]:
        raise DegenerateSystem("determinant vanishes identically", continuum=True)
    live = (mag > 1e-12 * scale[:, None, None]).any(axis=0)
    da = np.nonzero(live.any(axis=1))[0].max()
    dz = kp if folded else np.nonzero(live.any(axis=0))[0].max()
    coeffs = coeffs[:, :da + 1, :dz + 1]
    d = coeffs[0]
    # (second member, its scale, margin weight): (D_1, D_2), (D_1, E_1); or (D, E)
    pairs = [(coeffs[1], scale[1], 1.0)] if folded and not flat[1] else []
    for q, q_scale, weight in pairs + [(d.conj().T, scale[0], float(not folded))]:
        sylvester, degrees = _sylvester(d, q)
        m = sum(degrees) + 1
        powers = _unity_powers(m)
        det_s = np.linalg.det(np.tensordot(powers[:, :len(sylvester)], sylvester, 1))
        ratio = (np.abs(det_s.conj() @ powers[:, :m]).max() / m
                 / (scale[0] ** (q.shape[1] - 1) * q_scale ** (d.shape[1] - 1)))
        if ratio > 1e-9:
            break
    else:
        raise DegenerateSystem(
            "the resultant of the determinant and its conjugate vanishes "
            "identically: the self-consistent roots form a curve", continuum=True)
    seeds = _pencil_eigenvalues(sylvester, degrees) if m > 1 else np.zeros(0, complex)
    return _Margined(_polished_roots(coeffs, scale, seeds, k + kp), weight * ratio)


def _polished_roots(coeffs, scale, al, degree):
    """Candidates (alpha, at_infinity): the seeds ``al`` polished by Gauss-Newton
    on every D_c(alpha, conj alpha) = sum coeffs[c, i, j] alpha^i conj(alpha)^j
    at once and kept where every |D_c| is small (on one D_c alone, a nearly
    singular Jacobian left hits at 1e-10 to 1e-7), and alpha = infinity."""
    # every D, dD/dalpha and dD/dz, divided by the scale of its D, as
    # coefficients of the monomials alpha^i z^j
    ia, iz = np.arange(coeffs.shape[1]), np.arange(coeffs.shape[2])
    tensor = np.zeros((len(coeffs), 3) + coeffs.shape[1:], dtype=complex)
    tensor[:, 0] = coeffs
    tensor[:, 1, :-1] = coeffs[:, 1:] * ia[1:, None]
    tensor[:, 2, :, :-1] = coeffs[:, :, 1:] * iz[1:]
    tensor /= scale[:, None, None, None]

    def terms(al):
        """Values and derivatives at every entry of al (conditions x 3 x len(al))."""
        return ((al[:, None] ** ia) @ tensor * al.conj()[:, None] ** iz).sum(-1)

    # Gauss-Newton on F(x, y) = D(x+iy, x-iy) = 0 for every condition, at all
    # live seeds at once: the normal equations P step + Q conj(step) = G in
    # complex form.  For one condition it is the real 2x2 Newton, with
    # P^2 - |Q|^2 = (|dD/dalpha|^2 - |dD/dz|^2)^2.  A seed stops when its step
    # is negligible or a step fails to halve |F|; past that it only wanders.
    live = np.arange(al.size)
    last = np.full(al.size, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(40):
            fv, ga, gz = terms(al[live]).transpose(1, 0, 2)
            now = (np.abs(fv) ** 2).sum(0)
            halved = now <= 0.25 * last[live]
            last[live] = now
            live, fv, ga, gz = live[halved], fv[:, halved], ga[:, halved], gz[:, halved]
            if not live.size:
                break
            pp = (np.abs(ga) ** 2 + np.abs(gz) ** 2).sum(0)
            qq = 2 * (ga.conj() * gz).sum(0)
            gg = -(ga.conj() * fv + gz * fv.conj()).sum(0)
            det = pp ** 2 - np.abs(qq) ** 2
            step = (pp * gg - qq * gg.conj()) / det
            moving = np.abs(det) >= 1e-300
            al[live] = a = np.where(moving, al[live] + step, al[live])
            live = live[moving & (np.abs(step) >= 1e-13 * np.maximum(1.0, np.abs(a)))]
        grow = np.maximum(1.0, np.abs(al)) ** (degree + 2)
        small = np.abs(terms(al)[:, 0]) <= 1e-9 * np.maximum(1 / scale[:, None], grow)
        roots = al[small.all(0)]
    return [(a, False) for a in roots] + [(0j, True)]


def fit_product_cone(rho: DensityMatrix, hits) -> tuple[np.ndarray, np.ndarray, float]:
    """(phis, psis, residual): rho = sum_h w_h |e_h f_h><e_h f_h| fitted over
    the hits by one real least-squares solve, with the terms of w_h <= 0
    dropped.  Row h of phis is sqrt(w_h) e_h and of psis f_h, over the kept
    hits; ``residual`` is the largest entry of |rho - sum_kept|.

    Where search_product_vectors is isolated, every term of a product
    decomposition of rho is a hit, so rho separable means this fit is
    exact; elsewhere a hit may be missing, and a failed fit proves nothing.
    Linearly dependent projectors leave the weights undetermined:
    DegenerateSystem.
    """
    vecs = np.array([h.product_vector() for h in hits])
    projectors = vecs[:, :, None] * vecs[:, None, :].conj()              # H x 2N x 2N
    system = np.concatenate([projectors.real, projectors.imag], axis=1).reshape(len(hits), -1)
    target = np.concatenate([rho.mat.real, rho.mat.imag])
    w, _, rank, _ = np.linalg.lstsq(system.T, target.reshape(-1), rcond=None)
    if rank < len(hits):
        raise DegenerateSystem(f"{len(hits)} hit projectors span only {rank} dimensions")
    keep = w > 0
    fitted = np.tensordot(w[keep], projectors[keep], 1)
    phis = np.array([h.e for h in hits])[keep] * np.sqrt(w[keep])[:, None]
    return phis, np.array([h.f for h in hits])[keep], float(np.abs(rho.mat - fitted).max())


def _inverse_weight(spectrum, v: np.ndarray) -> float:
    """<v|X^+|v> for X given by its (eigenvalues, eigenvectors), over the
    eigenvalues counted in the numeric rank."""
    evals, evecs = spectrum
    keep = densmat.nonzero_eigenvalues(evals)
    return float((np.abs(evecs[:, keep].conj().T @ v) ** 2 / evals[keep]).sum())


def subtract_product_projectors(rho: DensityMatrix
                                ) -> tuple[DensityMatrix, np.ndarray, np.ndarray]:
    """(remainder, phis, psis) with rho = remainder + sum_t |phi_t psi_t><phi_t psi_t|
    and the remainder's kernel dims k + k' >= N.

    While k + k' < N the constraint stack at alpha = _PENCIL_SHIFT has a
    null vector f, so v = |e, f> with e = (1, alpha)/norm lies in the range of
    rho and its partner |e*, f> in the PT range.  Subtracting lambda |v><v|
    at lambda = min(1/<v|rho^+|v>, 1/<e*, f|(rho^{T_A})^+|e*, f>) keeps rho
    and rho^{T_A} positive and drops the rank of one of them (Kraus, Cirac,
    Karnas & Lewenstein 2000), so at most N subtractions reach k + k' >= N.
    Row t of phis is sqrt(lambda_t) e and of psis f_t.  The remainder is
    validated as unnormalized; where N subtractions leave k + k' < N, the
    ranks are not dropping: DegenerateSystem.
    """
    n, alpha = rho.dim_b, _PENCIL_SHIFT
    e = np.array([1.0, alpha]) / np.sqrt(1.0 + abs(alpha) ** 2)
    phis, psis = [], []
    while True:
        blocks = _row_blocks(rho)
        if blocks[0].shape[0] + blocks[2].shape[0] >= n:
            return rho, np.array(phis).reshape(-1, 2), np.array(psis).reshape(-1, n)
        if len(phis) == n:
            raise DegenerateSystem(f"{n} subtractions left kernel dims below {n}")
        f = np.linalg.svd(_stack_rows(blocks, alpha))[2][-1].conj()
        v = np.outer(e, f).ravel()
        lam = 1 / max(_inverse_weight(rho.spectrum, v),
                      _inverse_weight(rho.pt_spectrum, np.outer(e.conj(), f).ravel()))
        rho = densmat.validate_density(rho.mat - lam * np.outer(v, v.conj()), 2, n,
                                       tol=rho.tol, unnormalized=True)
        phis.append(np.sqrt(lam) * e)
        psis.append(f)


def determinant_equation_57(rho: DensityMatrix, tol: float = 1e-7) -> list[ProductVectorHit]:
    """Roots of the rank-(5,7) determinant condition on a 2x4 state.

    The kernel dimensions must be (3, 1): the determinant is cubic in alpha
    and linear in conj(alpha), so its resultant with its conjugate has
    degree at most 3^2 + 1^2 = 10, and a continuity argument guarantees at
    least one self-consistent root.  The search is the determinant case of
    find_product_vectors at ``tol``: more than ten validated hits raise
    DegenerateSystem instead of being truncated.  Returns the verified hits;
    an empty list signals a violation of the existence claim and is treated
    as a failure by callers.
    """
    if rho.dim_a != 2 or rho.dim_b != 4:
        raise InputError("the (5,7) determinant equation lives on 2x4 states")
    blocks = _row_blocks(rho)
    k, kp = blocks[0].shape[0], blocks[2].shape[0]
    if (k, kp) != (3, 1):
        raise UnsupportedRankPattern(f"need kernel dims (3, 1), got ({k}, {kp})")
    return _search(blocks, tol)


class EdgeVerdict(NamedTuple):
    verdict: str  # "edge" | "not_edge" | "unknown"
    witness: ProductVectorHit | None
    hits: tuple


def edge_state_test(rho: DensityMatrix, tol: float = 1e-8) -> EdgeVerdict:
    """Edge iff no product vector sits in the range with its conjugate partner
    in the PT range.  Only meaningful for PPT states.

    search_product_vectors searches k + k' = N and every k + k' > N with
    0 < k < N; there 'not_edge' is exact, and 'edge' is exact where the
    search is isolated: no hit from a search that is not isolated is
    'unknown'.  A continuum of hits is 'not_edge' once one witness is found
    (any f when there are no kernel constraints at all), else 'unknown';
    other kernel dimensions (k = 0 or k >= N) are 'unknown'."""
    ppt, min_eig = densmat.is_ppt(rho)
    if not ppt:
        raise InputError(f"edge test needs a PPT state (min PT eigenvalue {min_eig:.3e})")
    try:
        hits, isolated = search_product_vectors(rho, tol=tol)
    except DegenerateSystem:
        hit = _find_any_hit(rho, tol)
        if hit is not None:
            return EdgeVerdict("not_edge", hit, (hit,))
        return EdgeVerdict("unknown", None, ())
    except UnsupportedRankPattern:
        return EdgeVerdict("unknown", None, ())
    if hits:
        return EdgeVerdict("not_edge", hits[0], tuple(hits))
    return EdgeVerdict("edge" if isolated else "unknown", None, ())


# Seeds and step budget of the continuum witness search, _find_any_hit
_HIT_SEEDS = (0j, 1 + 0j, 1j, -1 + 0j, 0.5 - 0.5j, 2 + 1j, -0.3 + 1.7j, 0.1 + 0.1j)
_HIT_STEPS = 100
_HIT_HALVINGS = 40


def _find_any_hit(rho: DensityMatrix, tol: float) -> ProductVectorHit | None:
    """One witness on a continuum of product vectors: drive the smallest
    singular value s(alpha) of the constraint stack to zero from a handful
    of seeds.  The smallest singular pair (u, v) gives the gradient
    g = conj(u_k^dag psi1 v) + u_k'^dag phi1 v (as d/dRe + i d/dIm), and the
    Newton step alpha -= s g / |g|^2, halved until s falls, lands on a
    simple zero of s."""
    blocks = _row_blocks(rho)
    k = blocks[0].shape[0]

    def smin(alpha):
        rows = _stack_rows(blocks, alpha)
        if rows.shape[0] < rho.dim_b:
            return 0.0, 0j  # fewer constraints than unknowns: every alpha is a hit
        u, svals, vh = np.linalg.svd(rows, full_matrices=False)
        w, v = u[:, -1].conj(), vh[-1].conj()
        grad = np.conj(w[:k] @ blocks[1] @ v) + w[k:] @ blocks[3] @ v
        return svals[-1], grad

    for alpha in _HIT_SEEDS:
        s, grad = smin(alpha)
        for _ in range(_HIT_STEPS):
            if s <= tol * 1e-6 or grad == 0:
                break
            step = s * grad / abs(grad) ** 2
            for _ in range(_HIT_HALVINGS):
                s_new, grad_new = smin(alpha - step)
                if s_new < s:
                    break
                step /= 2
            else:
                break
            alpha, s, grad = alpha - step, s_new, grad_new
        hits = _validate_candidates(blocks, [(alpha, False)], tol)
        if hits:
            return hits[0]
    return None


def hits_to_json_dict(hits, case: str) -> dict:
    out = []
    for h in hits:
        out.append({
            "alpha": "inf" if h.at_infinity else densmat.complex_to_pair(h.alpha),
            "e": densmat.vector_to_lists(h.e),
            "f": densmat.vector_to_lists(h.f),
            "residuals": {"range": h.residual_range, "pt_range": h.residual_pt_range},
        })
    return {"hits": out, "case": case}
