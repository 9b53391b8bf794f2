"""Product vectors in ranges and kernels of 2xN states.

A product vector |e, f> with e = |0> + alpha |1> lies in the range of rho iff
it annihilates every kernel vector, and the range criterion additionally asks
|e*, f> to lie in the range of the partial transpose.  Stacking the kernel
constraints gives k rows linear in alpha (from ker rho) and k' rows linear in
conj(alpha) (from ker rho^{T_A}); a nonzero f exists iff the stack is rank
deficient.  By the kernel dimensions (k, k') of a 2xN state:

* k + k' < N: every alpha works, a continuum (DegenerateSystem).
* k + k' = N: one determinant D(alpha, conj alpha) = 0.  Every isolated
  root is a root of the resultant of D and its conjugate, of degree at most
  k^2 + k'^2, whose roots seed a Newton polish; the enumeration is complete
  for every k', and more than k^2 + k'^2 validated hits raise
  DegenerateSystem.
* k = N - 1 < k + k': conj(alpha) is eliminated between determinant pairs;
  at most 2k hits.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class NotInRange(InputError):
    pass


@dataclass(frozen=True)
class ProductVectorHit:
    alpha: complex            # A-side parameter; inf encoded by at_infinity
    at_infinity: bool
    e: np.ndarray             # normalized C^2
    f: np.ndarray             # normalized C^N
    residual_range: float
    residual_pt_range: float

    def product_vector(self) -> np.ndarray:
        return np.kron(self.e, self.f)


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


def _stack_rows_inf(blocks):
    psi0, psi1, phi0, phi1 = blocks
    return np.vstack([psi1, phi1])


def _validate_candidate(rho, blocks, alpha, at_infinity, tol):
    rows = _stack_rows_inf(blocks) if at_infinity else _stack_rows(blocks, alpha)
    if rows.shape[0] == 0:
        raise DegenerateSystem("no kernel constraints at all", continuum=True)
    _, svals, vh = np.linalg.svd(rows)
    f = vh[-1].conj()
    f = f / np.linalg.norm(f)
    e = np.array([0.0, 1.0], dtype=complex) if at_infinity else \
        np.array([1.0, alpha], dtype=complex) / np.sqrt(1 + abs(alpha) ** 2)
    psi0, psi1, phi0, phi1 = blocks
    res_range = 0.0
    if psi0.shape[0]:
        res_range = float(np.abs((psi0 * e[0] + psi1 * e[1]) @ f).max())
    res_pt = 0.0
    if phi0.shape[0]:
        res_pt = float(np.abs((phi0 * np.conj(e[0]) + phi1 * np.conj(e[1])) @ f).max())
    hit = ProductVectorHit(complex(alpha) if not at_infinity else complex(np.inf),
                           at_infinity, e, f, res_range, res_pt)
    return hit if max(res_range, res_pt) <= tol else None


def _trim(coeffs: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Strip trailing (high-order) coefficients that are numerically zero."""
    c = np.asarray(coeffs, dtype=complex)
    scale = np.abs(c).max()
    if scale == 0.0:
        return c[:1]
    keep = np.abs(c) > rel_tol * scale
    last = np.max(np.nonzero(keep)) if keep.any() else 0
    return c[:last + 1]


def _poly_roots(coeffs: np.ndarray) -> np.ndarray:
    c = _trim(coeffs)
    if c.size <= 1:
        return np.array([], dtype=complex)
    return np.roots(c[::-1])


def _poly_eval(coeffs: np.ndarray, x: complex) -> complex:
    return complex(np.polyval(np.asarray(coeffs)[::-1], x))


def _poly_derivative(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def _newton_polish(coeffs, x, steps=2):
    d = _poly_derivative(coeffs)
    for _ in range(steps):
        fp = _poly_eval(d, x)
        if abs(fp) < 1e-300:
            break
        x = x - _poly_eval(coeffs, x) / fp
    return x


def _det_bipoly(rows_a0, rows_a1, rows_b0, rows_b1, deg_a, deg_b, radius=1.0):
    """Coefficients c[i, j] of det([A0 + x A1; B0 + y B1]) = sum c_ij x^i y^j,
    recovered by evaluation on scaled roots-of-unity grids and inverse DFT."""
    na, nb = deg_a + 1, deg_b + 1
    xs = radius * np.exp(2j * np.pi * np.arange(na) / na)
    ys = radius * np.exp(2j * np.pi * np.arange(nb) / nb)
    vals = np.empty((na, nb), dtype=complex)
    for ix, x in enumerate(xs):
        top = rows_a0 + x * rows_a1
        for iy, y in enumerate(ys):
            vals[ix, iy] = np.linalg.det(np.vstack([top, rows_b0 + y * rows_b1]))
    coeffs = np.fft.fft(np.fft.fft(vals, axis=0), axis=1) / (na * nb)
    coeffs /= radius ** np.add.outer(np.arange(na), np.arange(nb))
    return coeffs


def _poly_mul(a, b):
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _poly_sub(a, b):
    size = max(len(a), len(b))
    out = np.zeros(size, dtype=complex)
    out[:len(a)] += a
    out[:len(b)] -= b
    return out


def _dedupe(values, tol=1e-6):
    out = []
    for v in values:
        if all(abs(v - u) > tol * max(1.0, abs(v)) for u in out):
            out.append(v)
    return out


def _sorted_hits(hits):
    finite = sorted((h for h in hits if not h.at_infinity),
                    key=lambda h: (abs(h.alpha), np.angle(h.alpha)))
    inf = [h for h in hits if h.at_infinity]
    return finite + inf


def find_product_vectors(rho: DensityMatrix, tol: float = 1e-8) -> list[ProductVectorHit]:
    """Product vectors |e, f> in the range of rho with |e*, f> in the PT range.

    Dispatch on the kernel dimensions (k, k'): k + k' < N is a continuum
    (reported via DegenerateSystem); k + k' = N is a single determinant
    condition, enumerated through a resultant; the overdetermined cases with
    k = N - 1 constraints from the state kernel reduce to eliminating
    conj(alpha) between determinant pairs.
    """
    if rho.dim_a != 2:
        raise InputError(f"product-vector search needs dim_a = 2, got {rho.dim_a}")
    return _search(rho, _row_blocks(rho), tol)


def _search(rho, blocks, tol):
    """Candidates for the kernel dimensions of ``blocks``, validated, deduped
    and held to the degree bound of their case."""
    n = rho.dim_b
    k, kp = blocks[0].shape[0], blocks[2].shape[0]

    if k + kp < n:
        raise DegenerateSystem(
            f"kernel dims ({k},{kp}) leave a null space at every alpha", continuum=True)

    if k + kp == n:
        candidates = _det_case_candidates(blocks, k, kp)
    elif kp >= n - k and n - k == 1:
        candidates = _eliminate_case_candidates(blocks, k, kp)
    else:
        raise UnsupportedRankPattern(
            f"kernel dims ({k},{kp}) on 2x{n} are outside the implemented cases")

    hits = []
    for alpha, at_inf in candidates:
        hit = _validate_candidate(rho, blocks, alpha, at_inf, tol)
        if hit is not None:
            hits.append(hit)
    # collapse duplicates after validation
    unique = []
    for h in _sorted_hits(hits):
        if h.at_infinity:
            dup = any(u.at_infinity for u in unique)
        else:
            dup = any((not u.at_infinity) and abs(u.alpha - h.alpha) <= 1e-6 * max(1.0, abs(h.alpha))
                      for u in unique)
        if not dup:
            unique.append(h)
    cap = 2 * k if k + kp > n else k * k + kp * kp
    if len(unique) > cap:
        raise DegenerateSystem(
            f"{len(unique)} isolated-looking solutions exceed the degree bound {cap}; "
            "the solution set is a continuum", continuum=True)
    return unique


def _eliminate_case_candidates(blocks, k, kp):
    """k = N-1 state-kernel rows plus kp >= 1 PT rows: each PT row j gives
    det_j = W_j(alpha) + conj(alpha) V_j(alpha); eliminating conj(alpha)
    between a base determinant and det_j leaves polynomials whose common
    roots seed the search.  When all the eliminants vanish (proportional
    determinant conditions, as happens for highly symmetric states) the base
    determinant is solved self-consistently instead."""
    psi0, psi1, phi0, phi1 = blocks
    dets = []
    for j in range(kp):
        c = _det_bipoly(psi0, psi1, phi0[j:j + 1], phi1[j:j + 1], k, 1)
        dets.append((c[:, 0], c[:, 1]))  # (W_j, V_j)
    scales = [max(np.abs(w).max(), np.abs(v).max()) for w, v in dets]
    jb = int(np.argmax(scales))
    if scales[jb] < 1e-300:
        raise DegenerateSystem("all determinant conditions vanish identically",
                               continuum=True)
    w0, v0 = dets[jb]
    polys = []
    for j in range(kp):
        if j == jb:
            continue
        wj, vj = dets[j]
        pj = _poly_sub(_poly_mul(v0, wj), _poly_mul(w0, vj))
        if np.abs(pj).max() > 1e-10 * scales[jb] * scales[j]:
            polys.append(_trim(pj))
    if not polys:
        # proportional conditions: fall back to the bivariate determinant solve
        sub = (psi0, psi1, phi0[jb:jb + 1], phi1[jb:jb + 1])
        return _det_case_candidates(sub, k, 1)
    root_sets = [_poly_roots(p) for p in polys]
    matched = []
    for r in root_sets[0]:
        r = _newton_polish(polys[0], r)
        ok = True
        for p, rs in zip(polys[1:], root_sets[1:]):
            if rs.size == 0:
                ok = False
                break
            near = rs[np.argmin(np.abs(rs - r))]
            near = _newton_polish(p, near)
            if abs(near - r) > 1e-6 * max(1.0, abs(r)):
                ok = False
                break
        if ok:
            matched.append(r)
    out = [(a, False) for a in _dedupe(matched)]
    out.append((0j, True))  # the alpha = infinity chart, validated like any root
    return out


def _det_case_candidates(blocks, k, kp):
    """k + k' = N: a single determinant condition D(alpha, conj alpha) = 0.

    D(alpha, z) = sum c_ij alpha^i z^j has trimmed degrees da <= k in alpha
    and dz <= k' in z.  At a self-consistent root z = conj(alpha) both D and
    its conjugate E(alpha, z) = sum conj(c_ij) z^i alpha^j vanish, so alpha
    is a root of the resultant R(alpha) = Res_z(D, E), a polynomial of degree
    at most da^2 + dz^2 (ten for the (5,7) pattern).  R is interpolated from
    its (da+dz)-square Sylvester determinant at da^2 + dz^2 + 1 roots of unity;
    each of its roots seeds a real 2x2 Newton polish on D(alpha, conj alpha).
    The seeds contain every isolated self-consistent root, for every k', so
    the enumeration is complete; the alpha = infinity chart is added as one
    more candidate.  R vanishing identically means D and E share a factor:
    the self-consistent roots form a curve (DegenerateSystem).
    """
    coeffs = _det_bipoly(*blocks, k, kp)
    scale = np.abs(coeffs).max()
    if scale < 1e-300:
        raise DegenerateSystem("determinant vanishes identically", continuum=True)
    keep = np.abs(coeffs) > 1e-12 * scale
    coeffs = coeffs[:np.nonzero(keep.any(axis=1))[0].max() + 1,
                    :np.nonzero(keep.any(axis=0))[0].max() + 1]
    da, dz = coeffs.shape[0] - 1, coeffs.shape[1] - 1

    # Sylvester matrix in z of P(z) = D(alpha, z) (da shifted rows) and
    # Q(z) = E(alpha, z) (dz shifted rows), at every interpolation node
    m = da * da + dz * dz + 1
    xs = np.exp(2j * np.pi * np.arange(m) / m)
    p = (xs[:, None] ** np.arange(da + 1)) @ coeffs                 # m x (dz+1)
    q = (xs[:, None] ** np.arange(dz + 1)) @ coeffs.conj().T        # m x (da+1)
    syl = np.zeros((m, da + dz, da + dz), dtype=complex)
    for r in range(da):
        syl[:, r, r:r + dz + 1] = p
    for r in range(dz):
        syl[:, da + r, r:r + da + 1] = q
    res = np.fft.fft(np.linalg.det(syl)) / m
    if np.abs(res).max() <= 1e-9 * scale ** (da + dz):
        raise DegenerateSystem(
            "the resultant of the determinant and its conjugate vanishes "
            "identically: the self-consistent roots form a curve", continuum=True)
    seeds = _poly_roots(res)

    def dval(al):
        powa = al ** np.arange(da + 1)
        powz = np.conj(al) ** np.arange(dz + 1)
        return powa @ coeffs @ powz

    def dgrad(al):
        ia, iz = np.arange(da + 1), np.arange(dz + 1)
        powa, powz = al ** ia, np.conj(al) ** iz
        ga = (ia[1:] * powa[:-1]) @ coeffs[1:] @ powz if da else 0.0
        gz = powa @ coeffs[:, 1:] @ (iz[1:] * powz[:-1]) if dz else 0.0
        return complex(ga), complex(gz)

    roots = []
    for s in seeds:
        al = complex(s)
        ok = False
        for _ in range(40):
            fv = dval(al)
            ga, gz = dgrad(al)
            # real 2x2 Newton for F(x, y) = D(x+iy, x-iy)
            j11, j12 = ga + gz, 1j * (ga - gz)
            det = (j11.real * j12.imag - j12.real * j11.imag)
            if abs(det) < 1e-300:
                break
            dx = (-fv.real * j12.imag + fv.imag * j12.real) / det
            dy = (-j11.real * fv.imag + j11.imag * fv.real) / det
            step = complex(dx, dy)
            al = al + step
            if abs(step) < 1e-13 * max(1.0, abs(al)):
                ok = True
                break
        if ok and abs(dval(al)) <= 1e-9 * max(1.0, scale * max(1.0, abs(al)) ** (k + kp + 2)):
            roots.append(al)
    out = [(a, False) for a in _dedupe(roots)]
    out.append((0j, True))
    return out


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
    return _search(rho, blocks, tol)


@dataclass(frozen=True)
class SubtractionResult:
    rho_prime: DensityMatrix
    weight: float
    rank_drop: int


def subtract_product_projector(rho: DensityMatrix, e: np.ndarray, f: np.ndarray,
                               range_tol: float = 1e-8) -> SubtractionResult:
    """Remove lambda |e,f><e,f| at the critical weight 1/<e,f|rho^+|e,f>.

    The vector must lie in the range of rho; at the critical weight the
    remainder stays PSD and its rank drops by exactly one.
    """
    v = np.kron(np.asarray(e, dtype=complex), np.asarray(f, dtype=complex))
    v = v / np.linalg.norm(v)
    evals, evecs = rho.spectrum
    keep = densmat.nonzero_eigenvalues(evals) & (evals > 0)
    out_of_range = np.linalg.norm(v - evecs[:, keep] @ (evecs[:, keep].conj().T @ v))
    if out_of_range > range_tol:
        raise NotInRange(f"|e,f> has component {out_of_range:.3e} outside range(rho)")
    pinv_diag = np.zeros_like(evals)
    pinv_diag[keep] = 1.0 / evals[keep]
    quad = float(np.real(v.conj() @ (evecs * pinv_diag) @ (evecs.conj().T @ v)))
    weight = 1.0 / quad
    residue = rho.mat - weight * np.outer(v, v.conj())
    if np.abs(residue).max() < 1e-13 * max(np.abs(rho.mat).max(), 1e-300):
        residue = np.zeros_like(residue)
    rho_prime = densmat.validate_density(residue, rho.dim_a, rho.dim_b,
                                         tol=1e-8, unnormalized=True)
    after = densmat.nonzero_eigenvalues(rho_prime.spectrum.eigenvalues)
    return SubtractionResult(rho_prime, weight, int(np.sum(keep)) - int(np.sum(after)))


@dataclass(frozen=True)
class EdgeVerdict:
    verdict: str  # "edge" | "not_edge" | "unknown"
    witness: ProductVectorHit | None
    hits: tuple


def edge_state_test(rho: DensityMatrix, tol: float = 1e-8) -> EdgeVerdict:
    """Edge iff no product vector sits in the range with its conjugate partner
    in the PT range.  Only meaningful for PPT states.

    find_product_vectors enumerates every isolated hit in the determinant
    case k + k' = N (for every k', through the resultant) and in the
    elimination case k = N - 1, so there 'edge' and 'not_edge' are exact.  A
    continuum of hits is 'not_edge' once one witness is found, else
    'unknown'; other kernel dimensions are 'unknown'."""
    ppt, min_eig = densmat.is_ppt(rho)
    if not ppt:
        raise InputError(f"edge test needs a PPT state (min PT eigenvalue {min_eig:.3e})")
    try:
        hits = find_product_vectors(rho, tol=tol)
    except DegenerateSystem:
        hit = _find_any_hit(rho, tol)
        if hit is not None:
            return EdgeVerdict("not_edge", hit, (hit,))
        return EdgeVerdict("unknown", None, ())
    except UnsupportedRankPattern:
        return EdgeVerdict("unknown", None, ())
    if hits:
        return EdgeVerdict("not_edge", hits[0], tuple(hits))
    return EdgeVerdict("edge", None, ())


def _find_any_hit(rho: DensityMatrix, tol: float) -> ProductVectorHit | None:
    """One witness on a continuum of product vectors: descend the smallest
    singular value of the constraint stack from a handful of seeds."""
    import scipy.optimize  # deferred: most of the package's import time

    blocks = _row_blocks(rho)

    def smin(alpha):
        rows = _stack_rows(blocks, alpha)
        if rows.shape[0] < rho.dim_b:
            return 0.0
        return np.linalg.svd(rows, compute_uv=False)[-1]

    seeds = (0j, 1 + 0j, 1j, -1 + 0j, 0.5 - 0.5j, 2 + 1j, -0.3 + 1.7j, 0.1 + 0.1j)
    for seed in seeds:
        if smin(seed) <= tol:
            hit = _validate_candidate(rho, blocks, seed, False, tol)
            if hit is not None:
                return hit
        res = scipy.optimize.minimize(
            lambda x: smin(complex(x[0], x[1])),
            np.array([seed.real, seed.imag]), method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400})
        alpha = complex(res.x[0], res.x[1])
        hit = _validate_candidate(rho, blocks, alpha, False, tol)
        if hit is not None:
            return hit
    return None


def _slerp(u, v, t):
    overlap = np.vdot(u, v)
    if abs(overlap) > 0:
        v = v * (np.conj(overlap) / abs(overlap))
    ang = np.arccos(np.clip(abs(overlap), -1.0, 1.0))
    if ang < 1e-12:
        return u
    return (np.sin((1 - t) * ang) * u + np.sin(t * ang) * v) / np.sin(ang)


def balanced_subtraction_vector(rho: DensityMatrix, seed: int = 0,
                                samples: int = 256, tol: float = 1e-10):
    """Product vector whose critical subtraction weights for rho and rho^{T_A}
    coincide, located by bisection between two opposite-sign witnesses.

    This is the constructive stand-in for the continuity argument behind the
    rank-reduction chains.  On full-rank states the witnesses interpolate
    both local factors along great circles; on rank-deficient states (where
    random product pairs are never in range) the walk stays on the
    alpha-parametrized family cut out by the kernel constraints, moving along
    a straight path in alpha.
    """
    rng = np.random.default_rng(seed)
    n = rho.dim_b
    pt = densmat.partial_transpose(rho, "A")
    pt_state = densmat.validate_density(pt, rho.dim_a, rho.dim_b, unnormalized=True)
    blocks = _row_blocks(rho)
    n_rows = blocks[0].shape[0] + blocks[2].shape[0]
    if n_rows >= n:
        raise UnsupportedRankPattern(
            "no continuous family of in-range product vectors to walk")

    def gap(e, f):
        a = subtract_product_projector(rho, e, f).weight
        b = subtract_product_projector(pt_state, e.conj(), f).weight
        return a - b

    if n_rows > 0:
        def at(alpha):
            rows = _stack_rows(blocks, alpha)
            f = np.linalg.svd(rows)[2][-1].conj()
            e = np.array([1.0, alpha], dtype=complex)
            return e / np.linalg.norm(e), f / np.linalg.norm(f)

        pos = neg = None
        for _ in range(samples):
            alpha = complex(*rng.normal(size=2))
            try:
                g = gap(*at(alpha))
            except NotInRange:
                continue
            if abs(g) <= tol:
                return at(alpha)
            if g > 0 and pos is None:
                pos = alpha
            if g < 0 and neg is None:
                neg = alpha
            if pos is not None and neg is not None:
                break
        if pos is None or neg is None:
            raise RuntimeError("could not find opposite-sign witnesses")
        glo = gap(*at(pos))
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = (lo + hi) / 2
            e, f = at((1 - mid) * pos + mid * neg)
            g = gap(e, f)
            if abs(g) <= tol:
                return e, f
            if (g > 0) == (glo > 0):
                lo = mid
            else:
                hi = mid
        return e, f

    def sample():
        e = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        return e / np.linalg.norm(e), f / np.linalg.norm(f)

    pos = neg = None
    for _ in range(samples):
        e, f = sample()
        try:
            g = gap(e, f)
        except NotInRange:
            continue
        if abs(g) <= tol:
            return e, f
        if g > 0 and pos is None:
            pos = (e, f)
        if g < 0 and neg is None:
            neg = (e, f)
        if pos and neg:
            break
    if not (pos and neg):
        raise RuntimeError("could not find opposite-sign witnesses")
    lo, hi = 0.0, 1.0
    glo = gap(*pos)
    for _ in range(200):
        mid = (lo + hi) / 2
        e = _slerp(pos[0], neg[0], mid)
        f = _slerp(pos[1], neg[1], mid)
        e, f = e / np.linalg.norm(e), f / np.linalg.norm(f)
        g = gap(e, f)
        if abs(g) <= tol:
            return e, f
        if (g > 0) == (glo > 0):
            lo = mid
        else:
            hi = mid
    return e, f


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
