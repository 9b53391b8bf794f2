"""Product vectors in ranges, edge detection."""

import numpy as np
import pytest

from gramsep import densmat, provec, states
from gramsep.provec import (
    DegenerateSystem, ProductVectorHit, UnsupportedRankPattern,
    determinant_equation_57, edge_state_test, find_product_vectors, fit_product_cone,
)

import fixtures


def overlap(u, v):
    return abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


def test_cone_fit_over_a_complete_hit_set_is_exact():
    """Every term of a separable (5,6) state is a hit, so the fit over the
    six hits rebuilds it, with one positive weight per generator."""
    rho, sd = fixtures.separable_56(1)
    phis, psis, residual = fit_product_cone(rho, find_product_vectors(rho))
    assert residual <= 1e-13 and phis.shape == (6, 2) and psis.shape == (6, 4)
    fitted = sum(np.outer(v, v.conj()) for v in (np.kron(a, b) for a, b in zip(phis, psis)))
    assert np.abs(fitted - rho.mat).max() <= 1e-13
    for phi, psi in zip(sd.phis, sd.psis):
        gen = np.kron(phi, psi)
        assert max(overlap(np.kron(a, b), gen) for a, b in zip(phis, psis)) > 1 - 1e-9


def _hit(e, f):
    e, f = np.asarray(e, dtype=complex), np.asarray(f, dtype=complex)
    return ProductVectorHit(0j, False, e / np.linalg.norm(e), f / np.linalg.norm(f), 0.0, 0.0)


def test_cone_fit_drops_the_terms_of_nonpositive_weight():
    """|10><10| fitted over |00> and |+0>: least squares gives w = (-1/3, 2/3),
    so only (2/3)|+0><+0| is kept, and the residual is that of the kept term."""
    rho = densmat.validate_density(np.diag([0, 0, 1, 0]).astype(complex), 2, 2)
    phis, psis, residual = fit_product_cone(rho, [_hit([1, 0], [1, 0]), _hit([1, 1], [1, 0])])
    assert np.allclose(phis, [np.sqrt(2 / 3) * np.array([1, 1]) / np.sqrt(2)])
    assert np.allclose(psis, [[1, 0]])
    assert residual == pytest.approx(2 / 3)


def test_cone_fit_raises_on_dependent_projectors():
    rho, _ = fixtures.separable_56(1)
    hits = find_product_vectors(rho)
    with pytest.raises(DegenerateSystem):
        fit_product_cone(rho, hits + hits[:1])


def _planted_found(rho, sd, hits):
    """How many of the generators of sd are hits (overlap at least 1 - 1e-6)."""
    return sum(max((overlap(h.product_vector(), np.kron(phi, psi)) for h in hits), default=0.0)
               > 1 - 1e-6 for phi, psi in zip(sd.phis, sd.psis))


def test_search_is_isolated_where_no_hit_can_be_lost():
    """Well-separated A vectors: the search is isolated, finds every planted
    vector, and find_product_vectors returns its hits; so does an edge
    state, with none, and a range mixture, with its one."""
    for seed in range(5):
        rho, sd = fixtures.separable_56(seed)
        found = provec.search_product_vectors(rho)
        assert found.isolated and _planted_found(rho, sd, found.hits) == 6, seed
        assert [h.alpha for h in found.hits] == [h.alpha for h in find_product_vectors(rho)]
    assert provec.search_product_vectors(fixtures.ppt56_state(0)) == ([], True)
    for b in (0.2, 0.5, 0.8):
        found = provec.search_product_vectors(fixtures.horodecki_range_mixture(b, 0)[0])
        assert found.isolated and len(found.hits) == 1, b


def test_isolated_flag_is_a_python_bool():
    """The flag is the declared bool, not numpy's, so it serializes as true."""
    search = provec.search_product_vectors(fixtures.ppt56_state(0))
    assert type(search.isolated) is bool


@pytest.mark.parametrize("seed, gap, count", [(12, 1e-5, 1), (4, 1e-4, 4), (12, 1e-4, 4)])
def test_near_coincident_a_vectors_lose_hits_and_are_not_isolated(seed, gap, count):
    """Two of six A vectors ``gap`` apart: every planted vector validates at
    1e-14, yet the search finds only ``count`` of them (det S nearly
    vanishes, or the near pair polishes short of ``tol``), so it must not
    count as isolated."""
    rho, sd = fixtures.separable_56(seed, gap)
    planted = [(phi[1] / phi[0], False) for phi in sd.phis]
    assert len(provec._validate_candidates(provec._row_blocks(rho), planted, 1e-14)) == 6
    found = provec.search_product_vectors(rho)
    assert _planted_found(rho, sd, found.hits) == count
    assert not found.isolated


def test_55_recovers_generators():
    for seed in (42, 7, 19):
        rho, sd = states.random_separable(2, 4, 5, seed=seed)
        assert densmat.rank_pattern(rho) == (5, 5)
        hits = find_product_vectors(rho)
        assert len(hits) == 5
        for k in range(5):
            gen = np.kron(sd.phis[k], sd.psis[k])
            assert max(overlap(h.product_vector(), gen) for h in hits) > 1 - 1e-6
        for h in hits:
            assert h.residual_range <= 1e-8
            assert h.residual_pt_range <= 1e-8


def test_56_recovers_generators():
    rho, sd = fixtures.separable_56(1)
    hits = find_product_vectors(rho)
    assert len(hits) == 6
    for k in range(6):
        gen = np.kron(sd.phis[k], sd.psis[k])
        assert max(overlap(h.product_vector(), gen) for h in hits) > 1 - 1e-6


def test_horodecki_edge_family_has_no_hits():
    for b in (0.3, 0.5, 0.8):
        assert find_product_vectors(states.horodecki97(b)) == []


def test_horodecki_separable_point_is_continuum():
    with pytest.raises(DegenerateSystem) as err:
        find_product_vectors(states.horodecki97(1.0))
    assert err.value.continuum


def test_edge_state_test_verdicts():
    assert edge_state_test(states.horodecki97(0.5)).verdict == "edge"
    ev = edge_state_test(states.horodecki97(1.0))
    assert ev.verdict == "not_edge"
    assert abs(abs(ev.witness.alpha) - 1.0) < 1e-8  # witnesses sit on the unit circle
    rho, _ = states.random_separable(2, 4, 5, seed=42)
    ev = edge_state_test(rho)
    assert ev.verdict == "not_edge" and len(ev.hits) == 5


def test_find_any_hit_descends_onto_the_continuum(monkeypatch):
    # Horodecki b = 1 has a product vector at every |alpha| = 1; from seeds
    # off the unit circle the descent has to walk onto it
    rho = states.horodecki97(1.0)
    for seed in (0.5 - 0.5j, 2 + 1j, -0.3 + 1.7j, 0.1 + 0.1j):
        monkeypatch.setattr(provec, "_HIT_SEEDS", (seed,))
        hit = provec._find_any_hit(rho, 1e-8)
        assert abs(abs(hit.alpha) - 1) < 1e-8
        assert max(hit.residual_range, hit.residual_pt_range) <= 1e-8


def test_edge_state_test_requires_ppt():
    with pytest.raises(densmat.InputError):
        edge_state_test(states.random_density(2, 4, 8, seed=0))


def test_edge_mixture_is_not_edge():
    rho, (e, f) = fixtures.horodecki_range_mixture(0.5, seed=11)
    assert densmat.rank_pattern(rho) == (5, 6)
    ev = edge_state_test(rho)
    assert ev.verdict == "not_edge"
    planted = np.kron(e, f)
    assert max(overlap(h.product_vector(), planted) for h in ev.hits) > 1 - 1e-6


def test_random_ppt_56_states_are_edge():
    found = 0
    for seed in range(4):
        dm = fixtures.ppt56_state(seed)
        if dm is None:
            continue
        found += 1
        assert edge_state_test(dm).verdict == "edge"
    assert found >= 2


def test_determinant_equation_57_existence_and_cap():
    checked = 0
    for seed in range(12):
        out = fixtures.rank57_state(seed)
        if out is None:
            continue
        dm, _ = out
        hits = determinant_equation_57(dm)
        assert 1 <= len(hits) <= 10
        for h in hits:
            assert max(h.residual_range, h.residual_pt_range) <= 1e-7
        checked += 1
        if checked >= 5:
            break
    assert checked >= 5


def test_determinant_equation_57_recovers_plant():
    recovered = 0
    for seed in range(8):
        out = fixtures.rank57_state(seed, planted=True)
        if out is None:
            continue
        dm, (e, f) = out
        hits = determinant_equation_57(dm)
        alpha = e[1] / e[0]
        best = min(abs(h.alpha - alpha) for h in hits if not h.at_infinity)
        assert best < 1e-6
        recovered += 1
        if recovered >= 3:
            break
    assert recovered >= 3


def accept_finite(blocks, candidates, tol):
    """A validator that accepts every finite candidate as a hit."""
    n = blocks[0].shape[1]
    return [ProductVectorHit(complex(a), False, np.array([1.0, a]) / np.sqrt(1 + abs(a) ** 2),
                             np.eye(n)[0], 0.0, 0.0)
            for a, at_inf in candidates if not at_inf]


def test_determinant_equation_57_raises_above_bound(monkeypatch):
    """Eleven validated roots exceed the degree bound 3^2 + 1^2 = 10: a
    continuum, reported as such instead of truncated to ten."""
    dm, _ = fixtures.rank57_state(0)
    roots = [complex(0.1 * j, 0.05) for j in range(11)]

    monkeypatch.setattr(provec, "_candidates",
                        lambda blocks, k, kp: [(a, False) for a in roots] + [(0j, True)])
    monkeypatch.setattr(provec, "_validate_candidates", accept_finite)
    with pytest.raises(DegenerateSystem):
        determinant_equation_57(dm)


def _dedupe(values, tol=1e-6):
    out = []
    for v in values:
        if all(abs(v - u) > tol * max(1.0, abs(v)) for u in out):
            out.append(v)
    return out


def grid_reference_candidates(blocks, k, kp):
    """The determinant case's former seeding, kept as a reference: a real
    2x2 Newton on D(alpha, conj alpha) from each point of a 32x32 grid on
    [-10, 10]^2."""
    coeffs = provec._det_bipoly(*blocks, k, kp)

    def dval(al):
        powa = al ** np.arange(coeffs.shape[0])
        powz = np.conj(al) ** np.arange(coeffs.shape[1])
        return powa @ coeffs @ powz

    def dgrad(al):
        ia = np.arange(coeffs.shape[0])
        iz = np.arange(coeffs.shape[1])
        powa, powz = al ** ia, np.conj(al) ** iz
        da = (ia[1:] * powa[:-1]) @ coeffs[1:] @ powz
        dz = powa @ coeffs[:, 1:] @ (iz[1:] * powz[:-1])
        return complex(da), complex(dz)

    gx = np.linspace(-10, 10, 32)
    roots = []
    for al in (complex(x, y) for x in gx for y in gx):
        ok = False
        for _ in range(40):
            fv = dval(al)
            da, dz = dgrad(al)
            j11, j12 = da + dz, 1j * (da - dz)
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
        bound = 1e-9 * max(1.0, np.abs(coeffs).max() * max(1.0, abs(al)) ** (k + kp + 2))
        if ok and abs(dval(al)) <= bound:
            roots.append(al)
    return [(a, False) for a in _dedupe(roots)] + [(0j, True)]


def reference_alphas(monkeypatch, search, dm):
    with monkeypatch.context() as m:
        m.setattr(provec, "_candidates", grid_reference_candidates)
        return [h.alpha for h in search(dm)]


def test_det_case_equals_grid_reference_57(monkeypatch):
    checked = 0
    for seed in range(11):
        out = fixtures.rank57_state(seed)
        if out is None:
            continue
        dm, _ = out
        ref = reference_alphas(monkeypatch, determinant_equation_57, dm)
        got = [h.alpha for h in determinant_equation_57(dm)]
        assert len(got) == len(ref), seed
        assert np.allclose(got, ref, rtol=0, atol=1e-6), seed
        checked += 1
    assert checked >= 10


def test_det_case_contains_grid_reference_66(monkeypatch):
    checked = 0
    for seed in range(5):
        dm = fixtures.ppt66_state(seed)
        if dm is None:
            continue
        ref = reference_alphas(monkeypatch, find_product_vectors, dm)
        got = [h.alpha for h in find_product_vectors(dm)]
        assert ref, seed
        for a in ref:
            assert any(a == b or abs(a - b) <= 1e-6 for b in got), (seed, a)
        checked += 1
    assert checked >= 5


# The elimination case's former seeding (k = N - 1 < k + k'), kept verbatim
# as a reference together with the polynomial helpers it used.
_det_bipoly = provec._det_bipoly
_candidates = provec._candidates  # the determinant case, the reference's fallback


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


def _poly_mul(a, b):
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _poly_sub(a, b):
    size = max(len(a), len(b))
    out = np.zeros(size, dtype=complex)
    out[:len(a)] += a
    out[:len(b)] -= b
    return out


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
        return _candidates(sub, k, 1)
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


def eliminate_reference_alphas(dm, tol=1e-8):
    """Distinct validated alphas (inf for the infinity chart) of the former
    elimination-case search, in the order find_product_vectors sorts hits."""
    blocks = provec._row_blocks(dm)
    k, kp = blocks[0].shape[0], blocks[2].shape[0]
    assert k == dm.dim_b - 1 < k + kp
    hits = provec._validate_candidates(blocks, _eliminate_case_candidates(blocks, k, kp), tol)
    out = []
    for h in provec._sorted_hits(hits):
        a = complex(np.inf) if h.at_infinity else h.alpha
        if all(a != b and abs(a - b) > 1e-6 * max(1.0, abs(a)) for b in out):
            out.append(a)
    return out


def assert_same_search(dm):
    try:
        ref = eliminate_reference_alphas(dm)
    except DegenerateSystem:
        with pytest.raises(DegenerateSystem):
            find_product_vectors(dm)
        return
    got = [complex(np.inf) if h.at_infinity else h.alpha for h in find_product_vectors(dm)]
    assert len(got) == len(ref)
    assert [np.isinf(a) for a in got] == [np.isinf(a) for a in ref]
    finite = [(a, b) for a, b in zip(got, ref) if not np.isinf(a)]
    assert all(abs(a - b) <= 1e-6 for a, b in finite), (got, ref)


def test_elimination_equals_reference_on_mixtures():
    """(N+1)-term product mixtures: kernel dims (N-1, N-1), every planted
    product vector a hit."""
    for n in (3, 4, 5, 6):
        for seed in range(6):
            rho, _ = states.random_separable(2, n, n + 1, seed=100 + seed)
            assert_same_search(rho)


def test_elimination_equals_reference_on_56_fixtures():
    checked = 0
    for seed in range(12):
        dm = fixtures.ppt56_state(seed)
        if dm is not None:
            assert_same_search(dm)
            checked += 1
    assert checked >= 6
    for seed in range(8):
        assert_same_search(fixtures.separable_56(seed)[0])
    for b in (0.3, 0.5, 0.8):
        for seed in range(4):
            assert_same_search(fixtures.horodecki_range_mixture(b, seed)[0])


def test_elimination_equals_reference_on_horodecki_grid():
    for b in np.linspace(0.05, 1.0, 20):
        assert_same_search(states.horodecki97(b))


def test_elimination_finds_every_planted_vector_on_hard_mixtures():
    """Mixtures whose resultant has a root far outside the unit circle
    (2x6, seed 10253: |alpha| ~ 50) or a near-double root at a hit, where
    the first combination's Jacobian is nearly singular (2x5, seed 10274:
    relative 1e-6; Newton on that combination alone leaves 1e-10 there)."""
    for n, seed in ((6, 10253), (5, 10274), (6, 10878), (6, 10971)):
        rho, sd = states.random_separable(2, n, n + 1, seed=seed)
        hits = find_product_vectors(rho)
        for phi, psi in zip(sd.phis, sd.psis):
            gen = np.kron(phi, psi)
            assert max(overlap(h.product_vector(), gen) for h in hits) > 1 - 1e-6, (n, seed)
        assert max(max(h.residual_range, h.residual_pt_range) for h in hits) < 1e-12, (n, seed)


def test_elimination_case_raises_above_bound(monkeypatch):
    """Kernel dims (3, 2) on 2x4: at most 2k = 6 hits.  Six validated roots
    pass; seven are a continuum, reported as such instead of truncated."""
    rho, _ = fixtures.separable_56(1)
    assert [b.shape[0] for b in provec._row_blocks(rho)] == [3, 3, 2, 2]
    monkeypatch.setattr(provec, "_validate_candidates", accept_finite)
    for count, raises in ((6, False), (7, True)):
        roots = [complex(0.1 * j, 0.05) for j in range(count)]
        monkeypatch.setattr(provec, "_candidates",
                            lambda blocks, k, kp: [(a, False) for a in roots] + [(0j, True)])
        if raises:
            with pytest.raises(DegenerateSystem):
                find_product_vectors(rho)
        else:
            assert len(find_product_vectors(rho)) == count


def spy(monkeypatch, name):
    """Record the arguments of every call to provec.<name>, which still runs."""
    calls = []
    real = getattr(provec, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(provec, name, recorded)
    return calls


def test_pencil_case_seeds_from_a_2k_pencil_and_finds_every_planted_vector(monkeypatch):
    """(N+d)-term mixtures on 2xN, kernel dims (k, k) with k = N - d: the
    PT rows fold into d rows, the seeds are the eigenvalues of one pencil of
    size 2dk (2k = 2N - 2 for the (N+1)-term mixtures), the only Sylvester
    matrix formed is the 2d x 2d one of the two folds (never the fallback to
    the first fold and its conjugate), and every planted product vector is a
    hit."""
    pencils = spy(monkeypatch, "_pencil_eigenvalues")
    sylvesters = spy(monkeypatch, "_sylvester")
    cases = [(n, 1, seed) for n in (3, 4, 5, 6) for seed in range(10000, 10100)]
    cases += [(n, d, seed) for n, d in ((5, 2), (6, 2), (7, 2), (7, 3)) for seed in range(10)]
    for n, d, seed in cases:
        k = n - d
        rho, sd = states.random_separable(2, n, n + d, seed=seed)
        pencils.clear()
        sylvesters.clear()
        hits = find_product_vectors(rho)
        assert [sum(degrees) for _, degrees in pencils] == [2 * d * k], (n, d, seed)
        fold = (k + 1, d + 1)
        assert [(p.shape, q.shape) for p, q in sylvesters] == [(fold, fold)], (n, d, seed)
        for phi, psi in zip(sd.phis, sd.psis):
            gen = np.kron(phi, psi)
            assert max(overlap(h.product_vector(), gen) for h in hits) > 1 - 1e-6, (n, d, seed)


def test_pencil_case_falls_back_to_the_resultant_only_where_det_s_vanishes(monkeypatch):
    """On the Horodecki family (kernel dims (3, 3) on 2x4) det S vanishes
    identically only at the separable point b = 1, whose continuum the
    fallback pair, the first combination and its conjugate, reports."""
    sylvesters = spy(monkeypatch, "_sylvester")
    bs = np.linspace(0.05, 1.0, 20)
    assert bs[-1] == 1.0
    for b in bs:
        sylvesters.clear()
        rho = states.horodecki97(b)
        if b < 1.0:
            assert find_product_vectors(rho) == []
            assert [(p.shape, q.shape) for p, q in sylvesters] == [((4, 2), (4, 2))], b
        else:
            with pytest.raises(DegenerateSystem) as err:
                find_product_vectors(rho)
            assert err.value.continuum
            (d1, d2), (p, q) = sylvesters
            assert d1.shape == d2.shape == (4, 2)
            assert p is d1 and np.array_equal(q, p.conj().T)


def test_pencil_case_with_determinants_constant_in_alpha():
    """Kernel rows free of alpha (psi1 = 0) make both determinants constant
    in alpha, det S a nonzero constant and the pencil empty: no finite seed.
    The alpha = infinity chart, where the one PT row left, e_0, admits
    f = e_1, is the one hit."""
    eye = np.eye(4, dtype=complex)
    zero = np.zeros(4)
    blocks = (eye[1:], np.zeros((3, 4), dtype=complex), np.array([eye[0], zero]),
              np.array([zero, eye[0]]))
    hits = provec._search(blocks, 1e-8)
    assert [h.at_infinity for h in hits] == [True]


def test_pt_row_weights_are_the_generators_draws():
    """The stored draws are default_rng(1997)'s bits for every fold size
    (d, k') they cover; beyond them the generator itself gives the weights,
    not an error."""
    stored = len(provec._PT_ROW_DRAWS)
    sizes = [(d, kp) for d in range(1, 5) for kp in range(1, 10)]
    assert {2 * d * kp <= stored for d, kp in sizes} == {True, False}
    for d, kp in sizes:
        want = np.random.default_rng(provec._PT_ROW_WEIGHTS_SEED).normal(size=(2, d, kp))
        got = provec._pt_row_weights(d, kp)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d, kp)
        assert provec._pt_row_weights(d, kp) is got and not got.flags.writeable


def test_determinant_equation_57_pattern_guard():
    with pytest.raises(UnsupportedRankPattern):
        determinant_equation_57(states.horodecki97(0.5))


def test_unsupported_rank_pattern():
    # full-rank 2x4 PPT state: no kernel constraints at all -> continuum
    mat = 0.5 * states.horodecki97(0.5).mat + 0.5 * np.eye(8) / 8
    rho = densmat.validate_density(mat, 2, 4)
    with pytest.raises(DegenerateSystem):
        find_product_vectors(rho)


def test_rounding_level_determinants_are_a_continuum():
    """Determinants zero up to rounding (largest coefficient about 1e-16 of the
    Hadamard bound of their kernel rows) mean every alpha is a hit: the search
    raises the continuum instead of reading isolated hits off the noise, and
    the edge test finds a witness on it."""
    for rho, pattern in ((fixtures.continuum_56_npt(), (5, 6)),
                         (fixtures.continuum_55_ppt(), (5, 5))):
        assert densmat.rank_pattern(rho) == pattern
        with pytest.raises(DegenerateSystem) as exc:
            find_product_vectors(rho)
        assert exc.value.continuum
    ev = edge_state_test(fixtures.continuum_55_ppt())
    assert ev.verdict == "not_edge"
    assert max(ev.witness.residual_range, ev.witness.residual_pt_range) <= 1e-8


def test_edge_verdict_unknown_outside_completeness_domain():
    """The PT-flipped (5,6) edge state, (6,5), is searched with its kernel
    dims (2, 3) and reads 'edge' like the unflipped state.  A rank-N state
    with a PT kernel (k = N) stays outside the search: 'unknown'."""
    dm = fixtures.ppt56_state(0)
    assert dm is not None
    flipped = densmat.validate_density(densmat.partial_transpose(dm, "A"), 2, 4)
    assert densmat.rank_pattern(flipped) == (6, 5)
    assert edge_state_test(flipped).verdict == edge_state_test(dm).verdict == "edge"
    rank_n = states.random_separable(2, 4, 4, seed=3)[0]
    assert densmat.rank_pattern(rank_n) == (4, 4)
    with pytest.raises(UnsupportedRankPattern):
        find_product_vectors(rank_n)
    assert edge_state_test(rank_n) == ("unknown", None, ())


def test_edge_verdict_unknown_where_no_hit_comes_from_a_search_that_is_not_isolated(
        monkeypatch):
    """A (5,6) edge state: no hit from an isolated search is 'edge'; no hit
    from a search that cannot rule out a lost hit is only 'unknown'."""
    dm = fixtures.ppt56_state(0)
    assert edge_state_test(dm).verdict == "edge"
    monkeypatch.setattr(provec, "_ISOLATION_MARGIN", np.inf)
    assert provec.search_product_vectors(dm) == ([], False)
    assert edge_state_test(dm) == ("unknown", None, ())


def test_hits_sorted_deterministically():
    rho, _ = states.random_separable(2, 4, 5, seed=42)
    a = [h.alpha for h in find_product_vectors(rho)]
    b = [h.alpha for h in find_product_vectors(rho)]
    assert a == b
    mags = [abs(x) for x in a]
    assert mags == sorted(mags)


def test_edge_state_test_on_full_rank_state():
    """No kernel constraints at all: every product vector is in both ranges,
    so the state is not edge, with any witness."""
    ev = edge_state_test(states.werner(0.2))
    assert ev.verdict == "not_edge"
    assert ev.hits == (ev.witness,)
    assert ev.witness.residual_range == ev.witness.residual_pt_range == 0.0
    assert abs(np.linalg.norm(ev.witness.f) - 1) < 1e-12


def test_subtracted_product_projectors_leave_a_ppt_remainder_of_kernel_dims_n():
    """Each subtraction keeps rho and rho^{T_A} positive and drops the rank
    of one of them, so a full-rank 2x3 state takes at most three."""
    rho = states.random_separable(2, 3, 8, seed=0)[0]
    remainder, phis, psis = provec.subtract_product_projectors(rho)
    assert 1 <= len(phis) == len(psis) <= 3 and remainder.unnormalized
    k, kp = (6 - r for r in densmat.rank_pattern(remainder))
    assert k + kp >= 3 and densmat.is_ppt(remainder)[0]
    terms = [np.kron(a, b) for a, b in zip(phis, psis)]
    rebuilt = remainder.mat + sum(np.outer(v, v.conj()) for v in terms)
    assert np.abs(rebuilt - rho.mat).max() <= 1e-14
    same = provec.subtract_product_projectors(remainder)
    assert same[0] is remainder and same[1].shape == (0, 2) and same[2].shape == (0, 3)
