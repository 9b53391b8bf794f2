"""Certificates, their round trips, and the commuting-family machinery."""

import json

import numpy as np
import pytest

from gramsep import cli, densmat, gram, sep, states
from gramsep.sep import (
    DiagonalGramCertificate, SeparableDecomposition, SingularD,
    build_ffcnm, certificate_to_decomposition, decomposition_to_certificate,
    extract_certificate, joint_diagonalize, verify_certificate, verify_ffcnm,
)

import fixtures


def random_separable_pair(m, n, k, seed):
    return states.random_separable(m, n, k, seed)


def test_certificate_round_trip_random():
    for seed in range(6):
        rho, sd = random_separable_pair(2, 3, 5, seed)
        cert = decomposition_to_certificate(sd)
        assert verify_certificate(cert, rho, tol=1e-10).passed
        sd2 = certificate_to_decomposition(cert, rho)
        assert sd2.residual(rho) < 1e-9


def test_certificate_pure_product():
    rho, sd = random_separable_pair(2, 4, 1, seed=3)
    cert = decomposition_to_certificate(sd)
    assert cert.k == 1
    assert verify_certificate(cert, rho, tol=1e-12).passed


def test_tabulated_werner_certificate():
    p = 0.2
    cert = fixtures.werner_certificate(p)
    rep = verify_certificate(cert, states.werner(p), tol=1e-10)
    assert rep.passed, rep.max_deviation
    sd = certificate_to_decomposition(cert, states.werner(p))
    assert sd.k == 4
    assert sd.residual(states.werner(p)) < 1e-9


def test_certificate_wrong_parameter_fails():
    cert = fixtures.werner_certificate(0.2)
    rep = verify_certificate(cert, states.werner(0.3), tol=1e-9)
    assert not rep.passed
    # the deviation is exactly the entrywise gap of the two states
    gap = np.abs(states.werner(0.2).mat - states.werner(0.3).mat).max()
    assert abs(rep.max_deviation - gap) < 1e-12


def test_zero_certificate_fails():
    cert = DiagonalGramCertificate(2, 2, np.zeros((2, 4)), np.zeros((2, 4)))
    assert not verify_certificate(cert, states.werner(0.1)).passed


def test_identity_certificate_is_separable_by_construction():
    # D_m = 1, v_n = e_n certifies a product operator
    k = 3
    cert = DiagonalGramCertificate(2, 3, np.ones((2, k), dtype=complex),
                                   np.eye(3, dtype=complex))
    sd = certificate_to_decomposition(cert)
    mat = sd.density()
    u = np.ones(2)
    expected = np.kron(np.outer(u, u), np.eye(3))
    assert np.abs(mat - expected).max() < 1e-14


def test_zero_diagonal_enforcement():
    # phi_0 orthogonal to |e_1>: the raw diagonal has an exact zero
    phis = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
    psis = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex) / np.sqrt(2)
    sd = SeparableDecomposition(2, 3, phis, psis)
    rho = densmat.validate_density(sd.density() / np.trace(sd.density()).real, 2, 3)
    sd = SeparableDecomposition(2, 3, phis / np.sqrt(np.trace(sd.density()).real), psis)
    cert = decomposition_to_certificate(sd)
    assert cert.is_nonsingular()
    assert cert.basis_a is not None
    assert verify_certificate(cert, rho, tol=1e-10).passed
    assert certificate_to_decomposition(cert, rho).residual(rho) < 1e-10


def test_certified_states_are_ppt():
    for seed in range(8):
        rho, sd = random_separable_pair(3, 4, 9, seed)
        cert = decomposition_to_certificate(sd)
        assert verify_certificate(cert, rho, tol=1e-9).passed
        assert densmat.is_ppt(rho)[0]


def test_build_ffcnm_identity_unitary():
    _, sd = random_separable_pair(2, 3, 4, seed=2)
    cert = decomposition_to_certificate(sd)
    fam = build_ffcnm(cert)
    mat = fam.matrices[(1, 0)]
    expected = np.diag(cert.diagonals[1] / cert.diagonals[0])
    assert np.abs(mat - expected).max() < 1e-12


def test_build_ffcnm_conjugated_residuals():
    rng = np.random.default_rng(5)
    _, sd = random_separable_pair(2, 4, 6, seed=5)
    cert = decomposition_to_certificate(sd)
    fam = build_ffcnm(cert, states.random_unitary(cert.k, rng))
    assert fam.diagnostics["normality"] < 1e-10
    assert fam.diagnostics["commutation"] < 1e-10


def test_build_ffcnm_three_party_family_commutes():
    rng = np.random.default_rng(6)
    _, sd = random_separable_pair(3, 3, 7, seed=6)
    cert = decomposition_to_certificate(sd)
    fam = build_ffcnm(cert, states.random_unitary(cert.k, rng))
    assert len(fam.matrices) == 3
    assert fam.diagnostics["commutation"] < 1e-10


def test_build_ffcnm_rejects_singular_diagonals():
    cert = DiagonalGramCertificate(2, 2, np.array([[1, 0], [1, 1]], dtype=complex),
                                   np.eye(2, 2, dtype=complex))
    with pytest.raises(SingularD):
        build_ffcnm(cert)


def test_verify_ffcnm_on_own_system():
    rng = np.random.default_rng(9)
    _, sd = random_separable_pair(2, 3, 5, seed=9)
    cert = decomposition_to_certificate(sd)
    u = states.random_unitary(cert.k, rng)
    fam = build_ffcnm(cert, u)
    g = gram.embed_gram(cert.gram_system(), u)
    rep = verify_ffcnm(fam, g)
    assert rep.passed
    assert max(rep.normality, rep.commutation, rep.relation) < 1e-9


def test_verify_ffcnm_identity_matrix_relation_residual():
    g = gram.spectral_gram(states.werner(0.2))
    fam = sep.FfcnmFamily(g.k, {(1, 0): np.eye(g.k, dtype=complex)})
    rep = verify_ffcnm(fam, g)
    expected = max(np.linalg.norm(g.vector(0, n) - g.vector(1, n)) for n in range(2))
    assert abs(rep.relation - expected) < 1e-12


def test_verify_ffcnm_flags_non_normal():
    g = gram.spectral_gram(states.werner(0.2))
    tri = np.eye(g.k, dtype=complex)
    tri[0, 1] = 1.0
    rep = verify_ffcnm(sep.FfcnmFamily(g.k, {(1, 0): tri}), g)
    assert rep.normality > 0.1


def test_joint_diagonalize_commuting_family():
    rng = np.random.default_rng(12)
    k = 6
    u = states.random_unitary(k, rng)
    mats = [(u * (rng.normal(size=k) + 1j * rng.normal(size=k))) @ u.conj().T
            for _ in range(3)]
    v, diags, off = joint_diagonalize(mats)
    assert off < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(k)).max() < 1e-12


def test_joint_diagonalize_repeated_joint_eigenvalues():
    # joint eigenspaces of dimension 2 and 3, and a member proportional to I
    rng = np.random.default_rng(21)
    k = 6
    u = states.random_unitary(k, rng)
    spectra = [np.array([1, 1, 2j, 2j, 2j, -1.5]), np.array([3, 3, -1, -1, -1, 0.5j]),
               np.full(k, 2.5 - 0.5j)]
    mats = [(u * d) @ u.conj().T for d in spectra]
    v, diags, off = joint_diagonalize(mats)
    assert off < 1e-12
    assert np.abs(v.conj().T @ v - np.eye(k)).max() < 1e-12
    assert np.abs(np.sort_complex(diags[0]) - np.sort_complex(spectra[0])).max() < 1e-12


def test_joint_diagonalize_retries_merged_eigenvalues():
    # two distinct eigenvalues of M that the first fixed combination
    # c0 H + c1 K maps to one eigenvalue: c0 Re(d) + c1 Im(d) = 0 for their
    # difference d, so its eigenvectors mix them and only the retry succeeds
    c0, c1 = sep._combination_weights(2)[0]
    rng = np.random.default_rng(22)
    k = 4
    u = states.random_unitary(k, rng)
    lam = np.array([0.3 + 0.2j, 0.3 + 0.2j + (-c1 + 1j * c0), 2.0, -1.0 + 1j])
    first = c0 * lam.real + c1 * lam.imag
    assert abs(first[0] - first[1]) < 1e-14
    mat = (u * lam) @ u.conj().T
    v, diags, off = joint_diagonalize([mat])
    assert off < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(k)).max() < 1e-12
    assert np.abs(np.sort_complex(diags[0]) - np.sort_complex(lam)).max() < 1e-10


def test_extract_certificate_rejects_non_commuting_family():
    rng = np.random.default_rng(23)
    k = 4
    a, b = (states.random_unitary(k, rng) for _ in range(2))
    mats = {(1, 0): (a * np.arange(1, k + 1)) @ a.conj().T,
            (2, 0): (b * np.arange(1, k + 1) * 1j) @ b.conj().T}
    g = gram.GramSystem(3, 2, rng.normal(size=(k, 6)) + 1j * rng.normal(size=(k, 6)))
    with pytest.raises(sep.JointDiagonalizationFailed):
        extract_certificate(sep.FfcnmFamily(k, mats), g)


def test_failed_extraction_stays_undecided(monkeypatch):
    def broken(mats):
        k = len(mats[0])
        return np.eye(k, dtype=complex), [np.zeros(k, dtype=complex)] * len(mats), 1.0

    rank_n, _ = random_separable_pair(2, 3, 3, seed=4)
    for rho in (rank_n, states.werner(0.2)):
        assert cli.analyze_state(rho)["verdict"] == cli.VERDICT_SEPARABLE
        monkeypatch.setattr(sep, "joint_diagonalize", broken)
        rep = cli.analyze_state(rho)
        monkeypatch.undo()
        assert rep["verdict"] == cli.VERDICT_UNDECIDED
        assert rep["note"].startswith("extraction failed")
        assert rep["certificate"] is None


def test_extract_certificate_round_trip():
    rng = np.random.default_rng(13)
    for m, n, k, seed in [(2, 3, 5, 1), (2, 4, 8, 2), (3, 3, 9, 3), (3, 4, 12, 4)]:
        rho, sd = random_separable_pair(m, n, k, seed)
        cert = decomposition_to_certificate(sd)
        u = states.random_unitary(cert.k, rng)
        fam = build_ffcnm(cert, u)
        g = gram.embed_gram(cert.gram_system(), u)
        cert2 = extract_certificate(fam, g)
        assert verify_certificate(cert2, rho, tol=1e-8).passed
        sd2 = certificate_to_decomposition(cert2, rho, tol=1e-8)
        assert sd2.residual(rho) < 1e-8


def test_extract_certificate_already_diagonal():
    _, sd = random_separable_pair(2, 2, 4, seed=7)
    cert = decomposition_to_certificate(sd)
    fam = build_ffcnm(cert)  # identity unitary: matrices already diagonal
    g = cert.gram_system()
    cert2 = extract_certificate(fam, g)
    # up to permutation/phase the frame is the original one; the certificate
    # must reproduce the same state either way
    rho = densmat.validate_density(sd.density(), 2, 2)
    assert verify_certificate(cert2, rho, tol=1e-9).passed


def zero_diagonal_certificate():
    """A certificate whose A basis is Givens-turned (basis_a set), and its state."""
    phis = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
    psis = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex) / np.sqrt(2)
    sd = SeparableDecomposition(2, 3, phis, psis)
    cert = decomposition_to_certificate(sd)
    assert cert.basis_a is not None
    return cert, densmat.validate_density(sd.density(), 2, 3, unnormalized=True)


def pairs(arr):
    """The per-entry [re, im] form that the JSON helpers build in one call."""
    if arr.ndim == 1:
        return [[float(np.real(z)), float(np.imag(z))] for z in arr]
    return [pairs(row) for row in arr]


def per_entry_gram(cert):
    """w_mn = D_m v_n filled column by column."""
    w = np.empty((cert.k, cert.dim_a * cert.dim_b), dtype=complex)
    for m in range(cert.dim_a):
        for n in range(cert.dim_b):
            w[:, m * cert.dim_b + n] = cert.diagonals[m] * cert.frame[n]
    return w


def test_certificate_json_round_trip():
    _, sd = random_separable_pair(2, 3, 4, seed=15)
    turned, _ = zero_diagonal_certificate()
    for cert in (decomposition_to_certificate(sd), turned):
        payload = sep.certificate_to_json_dict(cert)
        assert payload["d"] == pairs(cert.diagonals)
        assert payload["v"] == pairs(cert.frame)
        assert payload.get("basis_a") == (None if cert.basis_a is None else pairs(cert.basis_a))
        again = sep.certificate_from_json_dict(json.loads(json.dumps(payload)))
        assert np.array_equal(again.diagonals, cert.diagonals)
        assert np.array_equal(again.frame, cert.frame)
        assert (again.basis_a is None) == (cert.basis_a is None)
        if cert.basis_a is not None:
            assert np.array_equal(again.basis_a, cert.basis_a)
    assert densmat.vector_to_lists(sd.psis[0]) == pairs(sd.psis[0])


def test_gram_system_and_verification_match_the_per_entry_forms():
    certs = [(decomposition_to_certificate(sd), rho)
             for rho, sd in (random_separable_pair(2, 3, 5, 2), random_separable_pair(3, 4, 7, 5))]
    certs.append(zero_diagonal_certificate())
    for cert, rho in certs:
        w = per_entry_gram(cert)
        assert np.array_equal(cert.gram_system().vectors, w)
        ua, ub = cert.local_frame()
        u = np.kron(ua, ub)
        dev = np.abs(w.conj().T @ w - u.conj().T @ rho.mat @ u).max()
        assert verify_certificate(cert, rho).max_deviation == dev < 1e-12


def test_verify_ffcnm_and_extraction_match_the_per_column_forms():
    rng = np.random.default_rng(31)
    for m, n, k, seed in [(2, 3, 5, 1), (3, 4, 12, 4)]:
        _, sd = random_separable_pair(m, n, k, seed)
        u = states.random_unitary(k, rng)
        cert = decomposition_to_certificate(sd)
        fam = build_ffcnm(cert, u)
        g = gram.embed_gram(cert.gram_system(), u)
        g = gram.GramSystem(m, n, g.vectors + 1e-3 * rng.normal(size=g.vectors.shape))
        relation = max(np.linalg.norm(mat @ g.vector(kk, j) - g.vector(mm, j))
                       for (mm, kk), mat in fam.matrices.items() for j in range(n))
        # one product per slab sums in another order: a few ulps of the O(1)
        # entries, never more
        assert abs(verify_ffcnm(fam, g).relation - relation) < 1e-14
        v, _, _ = joint_diagonalize([fam.matrices[(mm, 0)] for mm in range(1, m)])
        frame = np.array([v.conj().T @ g.vector(0, j) for j in range(n)])
        assert np.abs(extract_certificate(fam, g).frame - frame).max() < 1e-14


def test_combination_weights_are_shared_and_read_only():
    weights = sep._combination_weights(4)
    assert sep._combination_weights(4) is weights
    assert np.array_equal(weights, np.random.default_rng(2007).normal(size=(2, 4)))
    with pytest.raises(ValueError):
        weights[0, 0] = 0.0
    # the stored draws are the generator's bits for every size they cover
    for n_parts in range(1, len(sep._COMBINATION_DRAWS) // 2 + 1):
        want = np.random.default_rng(sep._COMBINATION_SEED).normal(size=(2, n_parts))
        got = sep._combination_weights(n_parts)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_joint_diagonalize_names_its_family_limit():
    with pytest.raises(densmat.InputError, match="at most 8 matrices"):
        sep._combination_weights(17)
    mats = [np.diag(np.arange(3.0) + j) for j in range(9)]
    with pytest.raises(densmat.InputError, match="at most 8 matrices"):
        joint_diagonalize(mats)
    assert joint_diagonalize(mats[:8])[2] < 1e-12


def stacked_parts_diagonalize(mats):
    """joint_diagonalize built from the stacked Hermitian parts H = (M + M^dag)/2
    and K = (M - M^dag)/2i, combined by tensordot, off-diagonals through np.eye."""
    mats = np.array(mats, dtype=complex)
    adj = mats.conj().swapaxes(1, 2)
    parts = np.concatenate([(mats + adj) / 2, (mats - adj) / 2j])
    best = None
    for weights in sep._combination_weights(len(parts)):
        _, u = np.linalg.eigh(np.tensordot(weights, parts, axes=1))
        t = u.conj().T @ mats @ u
        diags = np.diagonal(t, axis1=1, axis2=2)
        off_norm = np.linalg.norm(t - diags[:, :, None] * np.eye(len(u)), axis=(1, 2))
        off = float(np.max(off_norm / np.maximum(np.linalg.norm(t, axis=(1, 2)), 1e-300)))
        if best is None or off < best[2]:
            best = (u, diags, off)
        if off <= sep._RETRY_ABOVE:
            break
    return best


def test_joint_diagonalize_is_the_stacked_parts_construction():
    """c M + (c M)^dag is twice the weighted sum of the parts: the same
    eigenvectors, so the same diagonals and residual up to rounding, on
    commuting normal families of one, two and three members, and on a
    family with a non-normal member, where both combinations are tried."""
    rng = np.random.default_rng(41)
    for count, k in [(1, 4), (1, 8), (2, 6), (3, 5)]:
        u = states.random_unitary(k, rng)
        mats = [(u * (rng.normal(size=k) + 1j * rng.normal(size=k))) @ u.conj().T
                for _ in range(count)]
        skewed = [mats[0] + np.triu(rng.normal(size=(k, k)), 1)] + mats[1:]
        for family in (mats, skewed):
            _, diags, off = joint_diagonalize(family)
            _, want_diags, want_off = stacked_parts_diagonalize(family)
            assert abs(off - want_off) < 1e-12
            assert np.abs(np.sort_complex(diags) - np.sort_complex(want_diags)).max() < 1e-12


def certificate_with_identity_bases(sd):
    """decomposition_to_certificate with the A basis an explicit matrix from
    the start: (diagonals, frame, basis_a)."""
    ua = np.eye(sd.dim_a, dtype=complex)
    scale = max(float(np.abs(sd.phis).max()), 1e-300)
    for attempt in range(9):
        diag = (ua.conj().T @ sd.phis.T).conj()
        bad = np.argwhere(np.abs(diag) <= sep.SINGULAR_DIAG_TOL * scale)
        if bad.size == 0:
            return diag, sd.psis.T.conj(), ua
        m = int(bad[0][0])
        ua = ua @ sep._givens(sd.dim_a, m, (m + 1) % sd.dim_a, (attempt + 1) * 1e-3)
    raise AssertionError("no nonsingular basis in 8 turns")


def test_certificate_conversions_are_the_identity_basis_products():
    """Both conversions skip the products with an identity local basis;
    np.array_equal (which equates -0.0 and 0.0) finds the same arrays as the
    products with explicit identity bases, with no Givens turn, one or two."""
    decompositions = [random_separable_pair(2, 3, 5, 2)[1], random_separable_pair(3, 4, 7, 5)[1],
                      SeparableDecomposition(2, 3, np.array([[1.0, 0.0], [0.6, 0.8]]),
                                             np.array([[0, 1, 0], [1, 0, 0]]) / np.sqrt(2)),
                      SeparableDecomposition(3, 2, np.array([[1, 1, 0], [0, 1, 1]]) / np.sqrt(2),
                                             np.eye(2))]
    turns = []
    for sd in decompositions:
        diag, frame, ua = certificate_with_identity_bases(sd)
        cert = decomposition_to_certificate(sd)
        assert np.array_equal(cert.diagonals, diag) and np.array_equal(cert.frame, frame)
        assert np.array_equal(cert.local_frame()[0], ua) and cert.basis_b is None
        turns.append(cert.basis_a is not None)
        back = certificate_to_decomposition(cert)
        assert np.array_equal(back.phis, (ua @ cert.diagonals.conj()).T)
        assert np.array_equal(back.psis, (np.eye(sd.dim_b) @ cert.frame.conj()).T)
    assert turns == [False, False, True, True]
    # a B basis is applied as its product
    cert = decomposition_to_certificate(decompositions[0])
    ub = states.random_unitary(3, np.random.default_rng(42))
    back = certificate_to_decomposition(DiagonalGramCertificate(2, 3, cert.diagonals, cert.frame,
                                                                basis_b=ub))
    assert np.array_equal(back.psis, (ub @ cert.frame.conj()).T)
