"""Canonical forms and the normal-extension solvers."""

import json
from pathlib import Path

import numpy as np
import pytest

from gramsep import densmat, sep, states, twoxn
from gramsep.twoxn import (
    NotPPT, NotSelfPT, RankMismatch, SingularC, assemble, canonical_form,
    companion_gram, extension_to_decomposition, factor_psd, known_part,
    rank_n_test, self_pt_extension, solve_extension_55, solve_extension_56,
    solve_extension_general,
)

import fixtures


def test_canonical_form_already_canonical():
    bmat = np.array([[0.1, 0.2], [0.0, 0.1]], dtype=complex)
    lam = np.array([[0.3], [0.1]], dtype=complex)
    a = bmat @ bmat.conj().T + lam @ lam.conj().T
    mat = np.block([[a, bmat], [bmat.conj().T, np.eye(2)]])
    rho = densmat.DensityMatrix(2, 2, mat, unnormalized=True)
    cf = canonical_form(rho)
    assert np.abs(cf.c_inv_half - np.eye(2)).max() < 1e-12
    assert np.abs(cf.b - bmat).max() < 1e-10


def test_canonical_form_werner_blocks():
    p = 0.2
    cf = canonical_form(states.werner(p))
    # C = diag((1-p)/4, (1+p)/4), so B = C_block-scaled offdiagonal
    c = states.werner(p).mat[2:, 2:]
    assert np.abs(c - np.diag([(1 - p) / 4, (1 + p) / 4])).max() < 1e-15
    expected_b = np.diag([(1 - p) / 4, 2 * p / 4]) @ np.diag(
        [1 / np.sqrt((1 - p) / 4), 1 / np.sqrt((1 + p) / 4)])
    # B block of the transformed state: rows f-index of the (0,1) A-block
    got = cf.b
    assert np.abs(got - np.array([[0, expected_b[1, 1]], [expected_b[0, 0], 0]])[[1, 0]][:, [1, 0]]).max() < 1.0
    # the invariant that matters: A = B B^dag + Lam Lam^dag
    rebuilt = cf.b @ cf.b.conj().T + cf.lam @ cf.lam.conj().T
    assert np.abs(cf.a - rebuilt).max() < 1e-9 * np.abs(cf.a).max()


def test_canonical_form_factor_invariants():
    for seed in range(5):
        rho, _ = states.random_separable(2, 4, 7, seed=seed)
        cf = canonical_form(rho)
        scale = np.abs(cf.a).max()
        assert np.abs(cf.a - cf.b @ cf.b.conj().T - cf.lam @ cf.lam.conj().T).max() \
            <= 1e-9 * scale
        assert cf.ppt
        gap = cf.a - cf.b.conj().T @ cf.b
        assert np.abs(gap - cf.lam_tilde.conj().T @ cf.lam_tilde).max() <= 1e-9 * scale


def test_canonical_form_recovers_horodecki_blocks():
    bmat, lam, lam_tilde = states.horodecki97_blocks(0.5)
    cf = canonical_form(states.horodecki97(0.5))
    assert np.abs(cf.b - bmat).max() < 1e-10
    assert cf.p == 1 and cf.p_tilde == 1
    overlap = abs(np.vdot(cf.lam[:, 0], lam)) / (np.linalg.norm(cf.lam) * np.linalg.norm(lam))
    assert abs(overlap - 1) < 1e-12
    got = cf.lam_tilde.conj().T[:, 0]
    overlap2 = abs(np.vdot(got, lam_tilde)) / (np.linalg.norm(got) * np.linalg.norm(lam_tilde))
    assert abs(overlap2 - 1) < 1e-12


def test_canonical_form_singular_c():
    vec = np.kron([1, 0], [1, 0, 0])
    rho = densmat.validate_density(np.outer(vec, vec), 2, 3)
    with pytest.raises(SingularC):
        canonical_form(rho)


def test_ppt_equivalence_with_gap_positivity():
    for seed in range(8):
        rho = states.random_density(2, 3, 6, seed=seed)
        cf = canonical_form(rho)
        ppt, _ = densmat.is_ppt(rho)
        if ppt:
            assert cf.ppt and cf.a_minus_btb_min_eig > -1e-9 * np.abs(cf.a).max()
        else:
            assert cf.a_minus_btb_min_eig < -1e-9 * np.abs(cf.a).max()


def test_factor_psd_basics():
    assert factor_psd(np.zeros((3, 3))).shape == (3, 0)
    x = np.array([1.0, 2j, -1.0])
    f = factor_psd(np.outer(x, x.conj()))
    assert f.shape == (3, 1)
    assert np.abs(f @ f.conj().T - np.outer(x, x.conj())).max() < 1e-12
    with pytest.raises(densmat.NotPSD):
        factor_psd(np.diag([1.0, -1.0]))


def test_factor_psd_horodecki_gap():
    bmat, lam, lam_tilde = states.horodecki97_blocks(0.5)
    a = bmat @ bmat.conj().T + np.outer(lam, lam.conj())
    f = factor_psd(a - bmat.conj().T @ bmat)
    assert f.shape == (4, 1)
    overlap = abs(np.vdot(f[:, 0], lam_tilde)) / (np.linalg.norm(f) * np.linalg.norm(lam_tilde))
    assert abs(overlap - 1) < 1e-12


def test_known_part_patterns():
    # rank N: nothing free, the completion is B itself
    rho, _ = states.random_separable(2, 3, 3, seed=4)
    cf = canonical_form(rho)
    assert cf.p == 0
    ep = known_part(cf)
    assert ep.q == 0
    # rank 5 on 2x4: scalar corner
    cf97 = canonical_form(states.horodecki97(0.3))
    ep97 = known_part(cf97)
    assert (ep97.p, ep97.p_tilde) == (1, 1)


def test_known_part_requires_ppt():
    rho = states.random_density(2, 3, 6, seed=3)
    assert not densmat.is_ppt(rho)[0]
    with pytest.raises(NotPPT):
        known_part(canonical_form(rho))


def test_companion_gram_structure():
    cf = canonical_form(states.horodecki97(0.5))
    g = companion_gram(cf, cf.lam)
    n = cf.n
    # w_0n are the standard basis vectors
    for j in range(n):
        e = np.zeros(n + 1)
        e[j] = 1
        assert np.abs(g.vector(0, j) - e).max() < 1e-12
    # w_1n carry the rows of B padded by the factor components
    for j in range(n):
        expected = np.concatenate([cf.b[j, :].conj(), cf.lam[j, :].conj()])
        assert np.abs(g.vector(1, j) - expected).max() < 1e-12
    # and the Gram matrix is the A-swapped canonical state
    swapped = twoxn.swapped_canonical_matrix(cf)
    assert np.abs(g.gram_matrix() - swapped).max() < 1e-9


def test_rank_n_test_on_product_constructions():
    for seed, n in [(0, 3), (1, 4), (2, 5)]:
        rng = np.random.default_rng(seed)
        # n product vectors with distinct A parts: rank-n separable state
        phis = fixtures.np.array([[1, a] for a in rng.normal(size=n) + 1j * rng.normal(size=n)])
        psis = np.eye(n, dtype=complex)
        sd = sep.SeparableDecomposition(2, n, phis, psis)
        tr = np.trace(sd.density()).real
        sd = sep.SeparableDecomposition(2, n, phis / np.sqrt(tr), psis)
        rho = densmat.validate_density(sd.density(), 2, n)
        cf = canonical_form(rho)
        residual, verdict = rank_n_test(cf)
        assert residual <= 1e-9
        assert verdict


def test_rank_n_test_unitary_b():
    u = states.random_unitary(3, np.random.default_rng(5))
    mat = np.block([[u @ u.conj().T, u], [u.conj().T, np.eye(3)]])
    rho = densmat.DensityMatrix(2, 3, mat / np.trace(mat).real, unnormalized=False)
    cf = canonical_form(densmat.validate_density(rho.mat, 2, 3))
    residual, verdict = rank_n_test(cf)
    assert residual < 1e-12 and verdict


def test_rank_n_test_shift_b_fails():
    bmat = np.zeros((3, 3), dtype=complex)
    bmat[0, 1] = 1.0
    bmat[1, 2] = 0.5
    a = bmat @ bmat.conj().T
    mat = np.block([[a, bmat], [bmat.conj().T, np.eye(3)]])
    rho = densmat.validate_density(mat / np.trace(mat).real, 2, 3)
    cf = canonical_form(rho)
    residual, verdict = rank_n_test(cf)
    assert residual > 1e-2 and not verdict


def test_rank_n_test_rank_guard():
    cf = canonical_form(states.werner(0.2))
    with pytest.raises(RankMismatch):
        rank_n_test(cf)


def test_self_pt_extension():
    rng = np.random.default_rng(8)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    bmat = (g + g.conj().T) / 4
    lam = (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))) / 3
    a = bmat @ bmat.conj().T + lam @ lam.conj().T
    mat = np.block([[a, bmat], [bmat.conj().T, np.eye(3)]])
    rho = densmat.validate_density(mat / np.trace(mat).real, 2, 3)
    cf = canonical_form(rho)
    sol = self_pt_extension(cf)
    assert sol.normality_residual < 1e-12
    # Hermitian S keeps the completion normal; so does adding i times the
    # global identity (Hermitian plus i-scalar is normal)
    s = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = (s + s.conj().T) / 2
    m = assemble(cf.b, sol.r_block, sol.t_block, s)
    assert sep.normality_residual(m) < 1e-12
    assert sep.normality_residual(m + 1j * np.eye(5)) < 1e-12
    # extraction certifies the state end to end
    sd, _ = extension_to_decomposition(cf, sol, rho)
    assert sd.residual(rho) < 1e-8


def test_self_pt_guard():
    cf = canonical_form(states.horodecki97(0.5))
    with pytest.raises(NotSelfPT):
        self_pt_extension(cf)


def test_solve_55_horodecki_family():
    for b in (0.1, 0.5, 0.9):
        cf = canonical_form(states.horodecki97(b))
        sol = solve_extension_55(known_part(cf))
        assert not sol.accepted
        assert sol.equation_residual > 1e-3
    cf = canonical_form(states.horodecki97(1.0))
    sol = solve_extension_55(known_part(cf))
    assert sol.accepted
    assert abs(sol.mixing["s"]) < 1e-10
    assert sol.equation_residual < 1e-10


def test_solve_55_separable_constructions():
    for seed in range(6):
        rho, _ = states.random_separable(2, 4, 5, seed=seed)
        if densmat.rank_pattern(rho) != (5, 5):
            continue
        cf = canonical_form(rho)
        sol = solve_extension_55(known_part(cf))
        assert sol.accepted
        assert sol.normality_residual < 1e-10
        sd, _ = extension_to_decomposition(cf, sol, rho, tol=1e-7)
        assert sd.residual(rho) < 1e-7
        assert sd.k == 5


def test_solve_56_separable():
    for seed in (1, 2):
        rho, _ = fixtures.separable_56(seed)
        assert densmat.rank_pattern(rho) == (5, 6)
        sol = solve_extension_56(known_part(canonical_form(rho)))
        assert sol.accepted
        assert sol.normality_residual <= 1e-6
        sd, _ = extension_to_decomposition(canonical_form(rho), sol, rho, tol=1e-5)
        assert sd.k == 6


def test_solve_56_polishes_separable_fixtures_to_rounding():
    """The analytic-Jacobian descent takes the best grid cell of every
    separable (5,6) fixture to a rounding-level completion, and the reported
    (alpha, beta) rebuild its upper-right block R = Lam (alpha, beta)."""
    for seed in range(10):
        rho, _ = fixtures.separable_56(seed)
        cf = canonical_form(rho)
        ep = known_part(cf)
        sol = solve_extension_56(ep)
        assert sol.accepted
        assert sol.normality_residual <= 1e-12
        ab = np.array([sol.mixing["alpha"], sol.mixing["beta"]])
        assert np.abs(sol.r_block - ep.lam @ ab[None, :]).max() <= 1e-12
        extension_to_decomposition(cf, sol, rho)


def _beta_zero_problem():
    """A (5,5) problem whose Lamt is padded with a zero second row."""
    rho, _ = states.random_separable(2, 4, 5, seed=11)
    assert densmat.rank_pattern(rho) == (5, 5)
    ep = known_part(canonical_form(rho))
    return twoxn.ExtensionProblem(ep.b, ep.lam,
                                  np.vstack([ep.lam_tilde0, np.zeros((1, 4))]))


def test_solve_56_beta_zero_consistency():
    """A zero second factor row reduces the two coupled equations to the
    scalar-corner pair plus a spectator; the sphere search must find it."""
    sol = solve_extension_56(_beta_zero_problem())
    assert sol.accepted
    assert sol.normality_residual <= 1e-6


def _scan_56_loop(ep):
    """Reference: the per-cell sphere scan, one least-squares fit and one
    normality residual per cell; returns (cell index, (alpha, beta), every
    cell's residual).  At theta = 0 only phi = 0 is scanned, since every phi
    gives the same cells there."""
    bmat = ep.b
    lvec = ep.lam[:, 0]
    tmat = ep.lam_tilde0  # 2 x N

    best_res, best_ab, best_cell, cell, scores = None, None, None, 0, []
    nth, nph, nga = twoxn._GRID_56
    for theta in np.linspace(0, np.pi / 2, nth):
        for phi in np.linspace(0, 2 * np.pi, nph, endpoint=False):
            if theta == 0 and phi > 0:
                continue
            for gamma in np.linspace(0, 2 * np.pi, nga, endpoint=False):
                ab = (np.array([np.cos(theta), np.sin(theta) * np.exp(1j * phi)])
                      * np.exp(1j * gamma))
                r = lvec[:, None] * ab[None, :]
                s = twoxn._offdiag_block_lstsq(bmat, r, tmat, 2)
                res = sep.normality_residual(assemble(bmat, r, tmat, s))
                scores.append(res)
                if best_ab is None or res < best_res:
                    best_res, best_ab, best_cell = res, ab, cell
                cell += 1
    return best_cell, best_ab, np.array(scores)


def test_scan_56_picks_the_cell_of_the_loop():
    """The batched scan scores every cell as the per-cell loop does and picks
    its cell, ties included (the beta-zero problem's real system is singular
    in every cell), so the solver's completion is bitwise the one the loop's
    cell starts.  No cell is scanned twice."""
    cells = twoxn._grid_56_cells()
    assert len(np.unique(cells, axis=0)) == len(cells)
    problems = [known_part(canonical_form(fixtures.separable_56(seed)[0]))
                for seed in range(20)]
    problems += [known_part(canonical_form(dm)) for dm in map(fixtures.ppt56_state, range(12))
                 if dm is not None]
    problems.append(_beta_zero_problem())
    path = Path(__file__).with_name("range_mix_1202_9.json")
    problems.append(known_part(canonical_form(
        densmat.state_from_json_dict(json.loads(path.read_text())))))
    for ep in problems:
        cell, ab, scores = _scan_56_loop(ep)
        scan_cell, scan_scores = twoxn._scan_56(ep)
        assert scan_cell == cell
        assert np.all(np.abs(scan_scores - scores) <= 1e-10 * scores)
        assert np.array_equal(twoxn._grid_56_cells()[cell], ab)
        start, blocks, residual, jacobian = twoxn._pinned_completion(ep)
        x, _ = twoxn._descend(residual, jacobian, start(ab.conj()[:, None])[None])
        sol = solve_extension_56(ep)
        assert np.array_equal(sol.matrix, assemble(ep.b, *blocks(x[0])))
        assert sol.mixing["scan_residual"] == scan_scores[cell]


def test_scan_56_monomials_are_cached_read_only():
    """Every problem's scan shares the cells and their monomials x = (1, c
    as floats) and x_k x_l; none of them can be written through."""
    cells = twoxn._grid_56_cells()
    x, xx = twoxn._grid_56_monomials()
    assert twoxn._grid_56_monomials() == (x, xx)
    assert np.array_equal(x, np.column_stack([np.ones(len(cells)), cells.view(float)]))
    assert np.array_equal(xx, np.einsum("ck,cl->ckl", x, x).reshape(len(x), -1))
    for a in (cells, x, xx):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_solve_56_fits_s_once(monkeypatch):
    """The scan fits every cell in one batched pass; only the start of the
    descent calls the single-problem fit."""
    calls = []
    fit = twoxn._offdiag_block_lstsq

    def counted(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(twoxn, "_offdiag_block_lstsq", counted)
    solve_extension_56(known_part(canonical_form(fixtures.separable_56(1)[0])))
    assert len(calls) == 1


def test_solve_56_entangled_bounded_away():
    dm = fixtures.ppt56_state(0)
    assert dm is not None
    sol = solve_extension_56(known_part(canonical_form(dm)))
    assert not sol.accepted
    assert sol.normality_residual > 1e-4


def test_general_solver_small_ppt_states():
    found = 0
    for seed in range(40):
        rho = states.random_density(2, 2, 4, seed=seed)
        if not densmat.is_ppt(rho)[0]:
            continue
        found += 1
        sol = solve_extension_general(known_part(canonical_form(rho)), budget=8, seed=1)
        assert sol.normality_residual <= 1e-6
        sd, _ = extension_to_decomposition(canonical_form(rho), sol, rho, tol=1e-6)
        assert sd.residual(rho) < 1e-6
        if found >= 4:
            break
    assert found >= 4


def test_general_solver_mixed_separable_full_rank():
    for seed in range(3):
        sep_part, _ = states.random_separable(2, 3, 5, seed=seed)
        mat = 0.6 * sep_part.mat + 0.4 * np.eye(6) / 6
        rho = densmat.validate_density(mat, 2, 3)
        sol = solve_extension_general(known_part(canonical_form(rho)), budget=10, seed=2)
        assert sol.normality_residual <= 1e-6
        sd, _ = extension_to_decomposition(canonical_form(rho), sol, rho, tol=1e-6)
        assert sd.residual(rho) < 1e-6


def test_general_solver_matches_55_verdicts():
    cf = canonical_form(states.horodecki97(0.5))
    ep = known_part(cf)
    general = solve_extension_general(ep, budget=8, seed=0)
    dedicated = solve_extension_55(ep)
    assert not dedicated.accepted and not general.accepted
    rho, _ = states.random_separable(2, 4, 5, seed=1)
    ep = known_part(canonical_form(rho))
    assert solve_extension_general(ep, budget=8, seed=0).accepted \
        == solve_extension_55(ep).accepted is True


def test_general_solver_runs_every_start_below_target():
    # an entangled (5,5) state never reaches the target
    ep = known_part(canonical_form(states.horodecki97(0.5)))
    assert solve_extension_general(ep, budget=3, seed=0).mixing["starts"] == 3


def _uneven_problems():
    """Completion problems with p = p~ = q, p < q and p~ < q."""
    rho, _ = states.random_separable(2, 3, 5, seed=1)
    rho56, _ = fixtures.separable_56(1)
    rho65 = densmat.validate_density(densmat.partial_transpose(rho56), 2, 4)
    return [known_part(canonical_form(r)) for r in (rho, rho56, rho65)]


def test_pinned_completion_jacobian_matches_central_differences():
    shapes = set()
    h = 1e-6
    for ep in _uneven_problems():
        shapes.add((ep.p, ep.p_tilde, ep.q))
        _, _, residual, jacobian = twoxn._pinned_completion(ep)
        rng = np.random.default_rng(ep.q + ep.p)
        x = rng.normal(size=(3, 2 * ep.q * (ep.p + ep.q)))
        jac = jacobian(x)
        assert jac.shape == (3, residual(x).shape[1], x.shape[1])
        for lane in range(3):
            fd = np.column_stack([(residual(x + h * e) - residual(x - h * e))[lane] / (2 * h)
                                  for e in np.eye(x.shape[1])])
            assert np.linalg.norm(jac[lane] - fd) <= 1e-6 * np.linalg.norm(fd)
    assert shapes == {(2, 2, 2), (1, 2, 2), (2, 1, 2)}


def test_pinned_completion_jacobian_is_the_same_on_every_branch(monkeypatch):
    """The Jacobian takes the last residual call's SVD and M as they are when
    the lanes come in that call's order, indexes them for a subset or a
    permutation of its lanes, and recomputes them for lanes it did not see;
    all three give the same J, bit for bit."""
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    for ep in _uneven_problems():
        _, _, residual, jacobian = twoxn._pinned_completion(ep)
        x = np.random.default_rng(ep.p).normal(size=(4, 2 * ep.q * (ep.p + ep.q)))
        residual(x)
        svds.clear()
        in_order = jacobian(x)
        assert np.array_equal(jacobian(x[[2, 0]]), in_order[[2, 0]])
        assert np.array_equal(jacobian(x[::-1]), in_order[::-1])
        assert not svds
        residual(x[1:2] + 1)
        assert np.array_equal(jacobian(x), in_order)
        assert len(svds) == 2


def _lane_starts(ep, lanes, seed):
    """x0 for V = [I; 0] and lanes - 1 random perturbations of it."""
    rng = np.random.default_rng(seed)
    start = twoxn._pinned_completion(ep)[0]
    z0 = np.eye(ep.q, ep.p, dtype=complex)
    return np.stack([start(z0)] + [start(z0 + rng.normal(size=z0.shape)
                                         + 1j * rng.normal(size=z0.shape))
                                   for _ in range(lanes - 1)])


def test_descend_lanes_match_lone_descents():
    """Every lane of a stacked descent, including lanes frozen early and
    lanes left running, is bitwise the descent of its start alone."""
    problems = _uneven_problems() + [known_part(canonical_form(states.horodecki97(0.5)))]
    for ep in problems:
        _, _, residual, jacobian = twoxn._pinned_completion(ep)
        x0 = _lane_starts(ep, 11, seed=ep.n + ep.p)
        x, nfev = twoxn._descend(residual, jacobian, x0)
        assert x.shape == x0.shape and nfev.shape == (11,)
        for lane in range(11):
            alone, alone_nfev = twoxn._descend(residual, jacobian, x0[lane:lane + 1])
            assert np.array_equal(x[lane], alone[0])
            assert nfev[lane] == alone_nfev[0]
        if ep.q > 1:
            assert len(set(nfev)) > 1   # lanes stop at different evaluations


def _general_loop(ep, budget, seed, target=1e-12):
    """Reference: the starts of the multi-start solver one after another,
    keeping the first at ``target``, else the first least residual."""
    rng = np.random.default_rng(seed)
    start, blocks, residual, jacobian = twoxn._pinned_completion(ep)
    best_x, best_res, ran = None, np.inf, 0
    while ran < budget and best_res > target:
        z = np.eye(ep.q, ep.p, dtype=complex)
        if ran:
            z = z + rng.normal(size=(ep.q, ep.p)) + 1j * rng.normal(size=(ep.q, ep.p))
        x = twoxn._descend(residual, jacobian, start(z)[None])[0][0]
        ran += 1
        res = sep.normality_residual(assemble(ep.b, *blocks(x)))
        if res < best_res:
            best_x, best_res = x, res
    return assemble(ep.b, *blocks(best_x)), ran


def test_general_solver_keeps_the_start_of_the_loop():
    """The stacked restarts keep the completion of the one-by-one loop:
    where start 0 hits the target, where a later start does (2x4, k = 6,
    seed 2), and where none does (seed 17, Horodecki).  Past start 0 every
    start runs."""
    cases = [(known_part(canonical_form(states.horodecki97(0.5))), 4)]
    cases += [(known_part(canonical_form(states.random_separable(2, 4, 6, seed=seed)[0])), 12)
              for seed in (0, 2, 17)]
    for ep, budget in cases:
        sol = solve_extension_general(ep, budget=budget, seed=0)
        matrix, ran = _general_loop(ep, budget, seed=0)
        assert sol.mixing["starts"] == (1 if ran == 1 else budget)
        assert np.array_equal(sol.matrix, matrix)


def test_general_solver_certifies_a_slow_start_of_a_wider_stack():
    """A separable (6,6) state that none of the default 12 starts certifies;
    of 48, a start that converges slowly does, and the stall stop, which ends
    only lanes whose |f|^2 has all but stopped falling, lets it finish."""
    rho, _ = states.random_separable(2, 4, 6, seed=17)
    sol = solve_extension_general(known_part(canonical_form(rho)), budget=48, seed=0)
    assert sol.mixing["starts"] == 48
    assert sol.accepted
    assert sol.normality_residual <= 1e-12


def test_descend_is_deterministic_on_rank_deficient_jacobian():
    # 40 residuals of 12 variables through 8 rotated coordinates: the
    # Jacobian has a 4-dimensional null space off the coordinate axes, as
    # the U(q) gauge gives the pinned completion.  There an LM whose step
    # depends on pivoting ties or on memory layout can return different x
    # for identical calls.  The target is off the model, so the descent runs
    # to a stationary point below the planted noise.
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.normal(size=(12, 12)))[0][:, :8]
    amat = rng.normal(size=(40, 8))
    planted = amat @ np.sin(rng.normal(size=8))
    noise = 0.05 * rng.normal(size=40)

    def residual(x):
        return np.sin(x @ basis) @ amat.T - planted - noise

    def jacobian(x):
        return (amat * np.cos(x @ basis)[:, None, :]) @ basis.T

    x0 = 0.3 * rng.normal(size=(1, 12))
    xs = set()
    for _ in range(50):
        x = twoxn._descend(residual, jacobian, x0)[0]
        xs.add(x.tobytes())
        herm = rng.normal(size=(160, 160))
        np.linalg.eigh(herm + herm.T)  # moves the allocator between calls
    assert len(xs) == 1
    f, jac = residual(x)[0], jacobian(x)[0]
    assert np.abs(jac.T @ f).max() <= 1e-7 * np.linalg.norm(jac) * np.linalg.norm(f)
    assert np.linalg.norm(f) <= np.linalg.norm(noise)


def test_descend_rejects_a_non_finite_trial_residual():
    # the first, nearly undamped step from x = 4 lands at x = -2, where the
    # residual is NaN; the descent must reject it and grow the damping
    def residual(x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(x) - 0.5

    def jacobian(x):
        return (0.5 / np.sqrt(x))[..., None]

    x, nfev = twoxn._descend(residual, jacobian, np.array([[4.0]]))
    assert abs(x[0, 0] - 0.25) <= 1e-12
    assert nfev[0] > 2


def _polar_jacobian(x):
    """d(x/|x|)/dx for each lane's vector x."""
    norm = np.linalg.norm(x, axis=1)[:, None, None]
    u = x[:, :, None] / norm
    return (np.eye(x.shape[1]) - u @ u.swapaxes(1, 2)) / norm


def test_descend_stops_a_stalled_lane_at_a_nonzero_minimum():
    # the polar factor x/|x| of a 2-vector pulled towards t, |t| < 1: the
    # least |f|^2 is (1 - |t|)^2 > 0, at x along t, and x's radial direction
    # is J's null space, as in the polar factor of the pinned completion.
    # Each step halves the distance to the minimum; the lane stops once
    # |f|^2 falls by less than _LM_STALL of itself over _LM_STALL_WINDOW
    # evaluations, and not before.
    t = np.array([0.3, 0.1])
    costs = []

    def residual(x):
        f = x / np.linalg.norm(x, axis=1, keepdims=True) - t
        costs.append(float(f[0] @ f[0]))
        return f

    x, nfev = twoxn._descend(residual, _polar_jacobian, np.array([[1.0, -1.0]]))
    assert nfev[0] == len(costs) <= 50
    best, w = np.minimum.accumulate(costs), twoxn._LM_STALL_WINDOW
    stalled = best[:-w] - best[w:] < twoxn._LM_STALL * best[:-w]
    assert stalled[-1] and not stalled[:-1].any()
    assert best[-1] - (1 - np.linalg.norm(t)) ** 2 <= 1e-6
    assert np.linalg.norm(x[0] / np.linalg.norm(x[0]) - t / np.linalg.norm(t)) <= 1e-2


def test_descend_survives_a_vanishing_damping(monkeypatch):
    """Without the stall stop the damping shrinks on every accepted step.
    On the polar-factor toy above it falls below the rounding of
    diag(J^T J) within a few dozen evaluations, so J^T J + mu I is exactly
    singular on J's null space: a lane then takes no step, which stops it
    at the minimum, while the other lane of the stack steps on as it would
    alone.  On the (5,6) range
    mixture of ``range_mix_1202_9.json`` the damping sits at its floor
    _LM_MU_MIN max diag(J^T J) for over a thousand steps, and the descent
    runs to the evaluation cap with a finite x."""
    monkeypatch.setattr(twoxn, "_LM_STALL", 0.0)
    t = np.array([0.3, 0.1])

    def residual(x):
        return x / np.linalg.norm(x, axis=1, keepdims=True) - t

    x0 = np.array([[1.0, -1.0], [2.0, 0.5]])
    x, nfev = twoxn._descend(residual, _polar_jacobian, x0)
    assert np.isfinite(x).all() and nfev.max() < twoxn._LM_MAX_NFEV
    cost = (residual(x) ** 2).sum(axis=1)
    assert np.all(cost - (1 - np.linalg.norm(t)) ** 2 <= 1e-9)
    for lane in range(2):
        alone, alone_nfev = twoxn._descend(residual, _polar_jacobian, x0[lane:lane + 1])
        assert np.array_equal(x[lane], alone[0]) and nfev[lane] == alone_nfev[0]

    path = Path(__file__).with_name("range_mix_1202_9.json")
    ep = known_part(canonical_form(densmat.state_from_json_dict(json.loads(path.read_text()))))
    sol = solve_extension_56(ep)
    assert sol.mixing["nfev"] == twoxn._LM_MAX_NFEV
    assert np.isfinite(sol.matrix).all() and np.isfinite(sol.normality_residual)


def test_general_solver_pins_t():
    for ep in _uneven_problems():
        sol = solve_extension_general(ep, budget=12, seed=0)
        assert sol.accepted
        pinned = np.vstack([ep.lam_tilde0, np.zeros((ep.q - ep.p_tilde, ep.n))])
        assert np.array_equal(sol.t_block, pinned)
        rr = sol.r_block @ sol.r_block.conj().T
        assert np.abs(rr - ep.lam @ ep.lam.conj().T).max() <= 1e-10


def _offdiag_block_lstsq_loop(bmat, r, t, q):
    """Reference: one column of the real system per basis matrix of S."""
    rhs = bmat.conj().T @ r - bmat @ t.conj().T
    cols = []
    basis = []
    for i in range(q):
        for j in range(q):
            for val in (1.0, 1.0j):
                e = np.zeros((q, q), dtype=complex)
                e[i, j] = val
                basis.append(e)
                eff = r @ e.conj().T - t.conj().T @ e
                cols.append(np.concatenate([eff.real.ravel(), eff.imag.ravel()]))
    sysm = np.array(cols).T
    target = np.concatenate([rhs.real.ravel(), rhs.imag.ravel()])
    coef, *_ = np.linalg.lstsq(sysm, target, rcond=None)
    s = np.zeros((q, q), dtype=complex)
    for x, e in zip(coef, basis):
        s += x * e
    return s


def test_offdiag_block_lstsq_matches_loop():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n, q = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        bmat, r, t = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                      for shape in ((n, n), (n, q), (q, n)))
        s = twoxn._offdiag_block_lstsq(bmat, r, t, q)
        assert np.array_equal(s, _offdiag_block_lstsq_loop(bmat, r, t, q))


def test_canonical_transform_preserves_separability_class():
    rho, sd = states.random_separable(2, 3, 6, seed=13)
    cf = canonical_form(rho)
    # push the known decomposition through the local map and back
    t = np.kron(np.eye(2), cf.c_inv_half)
    canon = t @ rho.mat @ t
    psis_c = sd.psis @ cf.c_inv_half.T
    sd_c = sep.SeparableDecomposition(2, 3, sd.phis, psis_c)
    assert np.abs(sd_c.density() - canon).max() < 1e-10
    psis_back = sd_c.psis @ cf.c_half.T
    sd_back = sep.SeparableDecomposition(2, 3, sd.phis, psis_back)
    assert sd_back.residual(rho) < 1e-8


def test_deflate_b_support():
    rng = np.random.default_rng(17)
    phis = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    psis3 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    iso = np.linalg.qr(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))[0]
    psis4 = psis3 @ iso.T
    sd = sep.SeparableDecomposition(2, 4, phis, psis4)
    tr = np.trace(sd.density()).real
    rho = densmat.validate_density(sd.density() / tr, 2, 4)
    reduced, y = twoxn.deflate_b_support(rho)
    assert reduced.dim_b == 3
    assert densmat.is_ppt(reduced)[0]
