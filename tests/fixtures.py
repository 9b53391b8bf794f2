"""Shared test fixtures: closed-form two-qubit data and rank-pattern samplers."""

import numpy as np

from gramsep import densmat, provec, sep, states


# --- closed-form two-qubit (Werner-family) data -----------------------------

def werner_spectral_terms(p):
    """Scaled eigenvectors of the Werner state, rows, in the fixed sign
    convention used by the regression data."""
    a = np.sqrt((1 - p) / 8)
    b = np.sqrt((1 + 3 * p) / 8)
    return np.array([
        [0, a, -a, 0],
        [a, 0, 0, -a],
        [0, a, a, 0],
        [b, 0, 0, b],
    ], dtype=complex)


def werner_factor_f2(p):
    return np.array([
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, np.sqrt((1 - p) / (1 + 3 * p))],
        [0, 0, np.sqrt((1 + 3 * p) / (1 - p)), 0],
    ], dtype=complex)


def werner_certificate(p):
    """The K=4 diagonal-Gram certificate of the Werner state at p <= 1/3."""
    sq = np.sqrt
    d1 = (1 - 1j) * (sq(1 - 3 * p) + sq(p + 1)) / (sq(2) * (sq(1 - p) + sq(3 * p + 1)))
    d2 = -(1 + 1j) * (sq(p + 1) - sq(1 - 3 * p)) / (sq(2) * (sq(1 - p) - sq(3 * p + 1)))
    diag2 = np.array([d1, d2, -d1, -d2])
    hi = (sq(1 - p) + sq(3 * p + 1)) / (4 * sq(2))
    lo = (sq(1 - p) - sq(3 * p + 1)) / (4 * sq(2))
    v1 = np.array([hi * np.exp(1j * np.pi / 2), lo * np.exp(1j * np.pi / 2),
                   hi * np.exp(-1j * np.pi / 2), lo * np.exp(-1j * np.pi / 2)])
    hi2 = (sq(1 - 3 * p) + sq(p + 1)) / (4 * sq(2))
    lo2 = (sq(p + 1) - sq(1 - 3 * p)) / (4 * sq(2))
    v2 = np.array([lo2 * np.exp(3j * np.pi / 4), hi2 * np.exp(-3j * np.pi / 4),
                   lo2 * np.exp(3j * np.pi / 4), hi2 * np.exp(-3j * np.pi / 4)])
    diagonals = np.vstack([np.ones(4, dtype=complex), diag2])
    frame = np.vstack([v1, v2])
    return sep.DiagonalGramCertificate(2, 2, diagonals, frame)


def werner_connection_matrix(p):
    """The unitary connecting the spectral and certificate Gram systems.

    This is the conjugate of the matrix as usually tabulated; the tabulated
    form absorbs a conjugation into its transform convention, and the
    conjugate is what satisfies w'_mn = V w_mn in our inner-product
    convention (checked against the certificate data at machine precision).
    """
    sq = np.sqrt
    c1 = (-sq(1 + p) + 1j * sq(1 - 3 * p)) / (sq(8) * sq(1 - p))
    c3a = (sq(1 - 3 * p) - 1j * sq(1 + p)) / (sq(8) * sq(1 - p))
    c3b = (-sq(1 - 3 * p) + 1j * sq(1 + p)) / (sq(8) * sq(1 - p))
    v = np.array([
        [c1, -0.5j, c3a, -0.5j],
        [c1, -0.5j, c3b, 0.5j],
        [c1, 0.5j, c3a, 0.5j],
        [c1, 0.5j, c3b, -0.5j],
    ])
    return v.conj()


# --- rank-pattern samplers on 2x4 -------------------------------------------

def psd_rank_project(h, r):
    h = (h + h.conj().T) / 2
    evals, evecs = np.linalg.eigh(h)
    evals = np.clip(evals, 0, None)
    idx = np.argsort(evals)[::-1][:r]
    return (evecs[:, idx] * evals[idx]) @ evecs[:, idx].conj().T


def separable_56(seed, gap=None):
    """Five generic product pairs plus a sixth product vector inside their
    span: a separable 2x4 state with rank pattern (5,6).  With ``gap`` the
    second pair's A vector is (1, alpha_0 + gap u), |u| = 1, normalized,
    next to the first pair's (1, alpha_0)."""
    rng = np.random.default_rng(seed)
    rho5, sd5 = states.random_separable(2, 4, 5, seed=seed)
    if gap is not None:
        u = complex(*rng.normal(size=2))
        phis = sd5.phis.copy()
        phis[1] = (1, phis[0, 1] / phis[0, 0] + gap * u / abs(u))
        phis[1] /= np.linalg.norm(phis[1])
        sd5 = sep.SeparableDecomposition(2, 4, phis, sd5.psis)
        rho5 = densmat.validate_density(sd5.density(), 2, 4)
    blocks = provec._row_blocks(rho5)
    psi0, psi1 = blocks[0], blocks[1]
    alpha6 = complex(*rng.normal(size=2))
    rows = psi0 + alpha6 * psi1
    f6 = np.linalg.svd(rows)[2][-1].conj()
    e6 = np.array([1, alpha6]) / np.sqrt(1 + abs(alpha6) ** 2)
    phis = np.vstack([sd5.phis, e6])
    psis = np.vstack([sd5.psis, f6 / np.linalg.norm(f6) / np.sqrt(5)])
    sd = sep.SeparableDecomposition(2, 4, phis, psis)
    tr = np.trace(sd.density()).real
    sd = sep.SeparableDecomposition(2, 4, phis / tr ** 0.25, psis / tr ** 0.25)
    rho = densmat.validate_density(sd.density(), 2, 4)
    return rho, sd


def separable_66(seed, gap, n=4, k=6):
    """Six product pairs on 2x4, rank pattern (6,6) (k pairs on 2xn, (k,k)),
    the second of them on the A vector (1, alpha_0 + gap u), |u| = 1, of the
    first, (1, alpha_0): at gap = 0 the two share it, so that hit has a
    2-dim f space."""
    rng = np.random.default_rng(seed)
    phis = rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
    u = complex(*rng.normal(size=2))
    phis[1] = (1, phis[0, 1] / phis[0, 0] + gap * u / abs(u))
    psis = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    sd = sep.SeparableDecomposition(2, n, phis, psis)
    tr = np.trace(sd.density()).real
    sd = sep.SeparableDecomposition(2, n, phis / tr ** 0.25, psis / tr ** 0.25)
    return densmat.validate_density(sd.density(), 2, n), sd


def rank57_state(seed, planted=False, iters=250):
    """Rank (5,7) 2x4 state (PPT or not) via alternating projections between
    the rank-5 PSD states and the states whose partial transpose kills one
    frozen direction.  Returns (state, planted pair) or None."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    x = g @ g.conj().T
    x /= np.trace(x).real
    e = f = v = vs = None
    t = 0.15
    if planted:
        e = rng.normal(size=2) + 1j * rng.normal(size=2)
        e /= np.linalg.norm(e)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        f /= np.linalg.norm(f)
        v = np.kron(e, f)
        vs = np.kron(e.conj(), f)
    u_frozen = None
    for it in range(iters):
        if planted:
            x = t * np.outer(v, v.conj()) + psd_rank_project(x - t * np.outer(v, v.conj()), 4)
        else:
            x = psd_rank_project(x, 5)
        x /= np.trace(x).real
        y = densmat.partial_transpose(x, "A", dims=(2, 4))
        y = (y + y.conj().T) / 2
        if u_frozen is None or it < 6:
            evals, evecs = np.linalg.eigh(y)
            u = evecs[:, np.argmin(np.abs(evals))]
            if planted:
                u = u - vs * np.vdot(vs, u) / np.vdot(vs, vs)
                nrm = np.linalg.norm(u)
                if nrm < 1e-6:
                    u = evecs[:, np.argsort(np.abs(evals))[1]]
                    u = u - vs * np.vdot(vs, u) / np.vdot(vs, vs)
                    nrm = np.linalg.norm(u)
                u = u / nrm
            u_frozen = u
        proj = np.eye(8) - np.outer(u_frozen, u_frozen.conj())
        x = densmat.partial_transpose(proj @ y @ proj, "A", dims=(2, 4))
    x = psd_rank_project((x + x.conj().T) / 2, 5)
    if planted:
        x = t * np.outer(v, v.conj()) + psd_rank_project(x - t * np.outer(v, v.conj()), 4)
        x = psd_rank_project(x, 5)
    x /= np.trace(x).real
    try:
        dm = densmat.validate_density(x, 2, 4, tol=1e-8)
    except densmat.InputError:
        return None
    pt = densmat.partial_transpose(dm, "A")
    ev = np.sort(np.abs(np.linalg.eigvalsh((pt + pt.conj().T) / 2)))
    if not (ev[0] < 1e-11 and ev[1] > 1e-4):
        return None
    if densmat.rank_pattern(dm) != (5, 7):
        return None
    return dm, (e, f)


def _ppt_alternating(seed, rank, rank_pt, iters, n=4):
    """PPT 2xn state with rank pattern (rank, rank_pt) via alternating
    projections between the rank-``rank`` states and the states whose
    partial transpose has rank ``rank_pt``.  Returns None when they miss."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2 * n, rank)) + 1j * rng.normal(size=(2 * n, rank))
    x = g @ g.conj().T
    x /= np.trace(x).real
    for _ in range(iters):
        x = psd_rank_project(x, rank)
        x /= np.trace(x).real
        y = densmat.partial_transpose(x, "A", dims=(2, n))
        x = densmat.partial_transpose(psd_rank_project(y, rank_pt), "A", dims=(2, n))
    x = psd_rank_project((x + x.conj().T) / 2, rank)
    x /= np.trace(x).real
    try:
        dm = densmat.validate_density(x, 2, n, tol=1e-7)
    except densmat.InputError:
        return None
    if densmat.rank_pattern(dm) != (rank, rank_pt) or not densmat.is_ppt(dm)[0]:
        return None
    return dm


def ppt56_state(seed, iters=600):
    """PPT 2x4 state with rank pattern (5,6); generically an edge state."""
    return _ppt_alternating(seed, 5, 6, iters)


def ppt66_state(seed, iters=400):
    """PPT 2x4 state with rank pattern (6,6): kernel dims (2,2), the
    determinant case with k' = 2."""
    return _ppt_alternating(seed, 6, 6, iters)


def continuum_56_npt():
    """rho ~ |psi><psi| + |1><1| (x) I/4 on 2x4, psi = |0>e_0 + |1>(0.3, 0.5i,
    0.2, 0.1): rank pattern (5,6), NPT.  Every alpha is a hit, with f = e_0, and
    the search's determinants vanish only up to rounding (about 1e-16)."""
    psi = np.array([1, 0, 0, 0, 0.3, 0.5j, 0.2, 0.1])
    mat = (np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
           + np.kron(np.diag([0.0, 1]), np.eye(4) / 4))
    return densmat.validate_density(mat / 2, 2, 4)


def continuum_55_ppt(seed=4):
    """|0><0| (x) |f_0><f_0| + |1><1| (x) sigma on 2x4, sigma of full rank, under
    a random local unitary: separable, rank pattern (5,5), every alpha a hit.
    At seed 4 the rounding in its determinants has four isolated-looking roots
    that validate, below the degree bound."""
    rng = np.random.default_rng(seed)
    u = np.kron(states.random_unitary(2, rng), states.random_unitary(4, rng))
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = (np.kron(np.diag([1.0, 0]), np.diag([1.0, 0, 0, 0]))
           + np.kron(np.diag([0.0, 1]), x @ x.conj().T))
    mat = u @ mat @ u.conj().T
    return densmat.validate_density(mat / np.trace(mat).real, 2, 4)


def horodecki_range_mixture(b, seed, weight=0.08):
    """Edge state mixed with one product projector from its own range:
    rank pattern (5,6), PPT, not edge, not separable."""
    rho_e = states.horodecki97(b)
    rng = np.random.default_rng(seed)
    blocks = provec._row_blocks(rho_e)
    psi0, psi1 = blocks[0], blocks[1]
    alpha = complex(*rng.normal(size=2))
    rows = psi0 + alpha * psi1
    f = np.linalg.svd(rows)[2][-1].conj()
    e = np.array([1, alpha]) / np.sqrt(1 + abs(alpha) ** 2)
    v = np.kron(e, f / np.linalg.norm(f))
    mix = (1 - weight) * rho_e.mat + weight * np.outer(v, v.conj())
    rho = densmat.validate_density(mix, 2, 4)
    return rho, (e, f / np.linalg.norm(f))


def horodecki_2x5_product_mixture():
    """0.9 rho_H(0.5) on B-span{f_0..f_3} plus 0.1 |e, f_4><e, f_4|,
    e ~ (1, 0.7i): a 2x5 state with rank pattern (6,6), PPT and entangled,
    since projecting its B side onto span{f_0..f_3} gives back rho_H."""
    mat = np.zeros((10, 10), dtype=complex)
    on_f03 = [0, 1, 2, 3, 5, 6, 7, 8]
    mat[np.ix_(on_f03, on_f03)] = 0.9 * states.horodecki97(0.5).mat
    e = np.array([1, 0.7j]) / np.sqrt(1.49)
    v = np.kron(e, np.eye(5)[4])
    return densmat.validate_density(mat + 0.1 * np.outer(v, v.conj()), 2, 5)
