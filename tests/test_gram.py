"""Gram systems: construction, embedding, connection and factor maps."""

import numpy as np
import pytest

from gramsep import densmat, gram, states
from gramsep.gram import (
    Decomposition, DependentBase, GramMismatch, NotIsometry, connect_gram,
    embed_gram, factor_maps, gram_from_decomposition, relate_decompositions,
    spectral_decomposition, spectral_gram,
)

import fixtures


def test_spectral_gram_reproduces_rho():
    for p in (0.0, 0.2, 0.7):
        rho = states.werner(p)
        g = spectral_gram(rho)
        assert g.residual(rho) < 1e-12


def test_spectral_gram_matches_tabulated_werner_system():
    """Our spectral system and the tabulated one are Gram systems of the same
    state, hence unitarily connected; the fixed-convention tabulated vectors
    also reproduce rho directly."""
    p = 0.2
    rho = states.werner(p)
    printed = gram_from_decomposition(
        Decomposition(2, 2, fixtures.werner_spectral_terms(p)), rho)
    assert printed.residual(rho) < 1e-14
    ours = spectral_gram(rho)
    conn = connect_gram(ours, printed)
    assert conn.residual < 1e-8
    assert conn.unitary_residual < 1e-10


def test_spectral_gram_pure_product():
    vec = np.zeros(6)
    vec[0] = 1.0
    rho = densmat.validate_density(np.outer(vec, vec), 2, 3)
    g = spectral_gram(rho)
    assert g.k == 1
    assert abs(g.vector(0, 0)[0] - 1.0) < 1e-14
    others = [np.linalg.norm(g.vector(m, n)) for m in range(2) for n in range(3)
              if (m, n) != (0, 0)]
    assert max(others) < 1e-14


def test_spectral_gram_random_rank3():
    rho = states.random_density(2, 3, 3, seed=5)
    g = spectral_gram(rho)
    assert g.k == 3
    assert g.residual(rho) < 1e-12


def test_gram_from_decomposition_matches_spectral():
    rho = states.werner(0.15)
    dec = spectral_decomposition(rho)
    assert np.abs(gram_from_decomposition(dec, rho).vectors
                  - spectral_gram(rho).vectors).max() == 0


def test_gram_from_two_term_product_decomposition():
    # I/2 (x) |0><0| via the |+-> pair
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    terms = np.vstack([np.kron(plus, [1, 0]), np.kron(minus, [1, 0])]) / np.sqrt(2)
    dec = Decomposition(2, 2, terms)
    rho = densmat.validate_density(np.kron(np.eye(2) / 2, np.diag([1.0, 0])), 2, 2)
    g = gram_from_decomposition(dec, rho)
    assert g.k == 2
    assert g.residual(rho) < 1e-14


def test_gram_from_decomposition_mismatch():
    rho = states.werner(0.1)
    bad = Decomposition(2, 2, fixtures.werner_spectral_terms(0.5))
    with pytest.raises(gram.DecompositionMismatch):
        gram_from_decomposition(bad, rho)


def test_embed_gram_identity_and_isometry():
    g = spectral_gram(states.werner(0.2))
    same = embed_gram(g, np.eye(g.k))
    assert np.abs(same.vectors - g.vectors).max() == 0
    rng = np.random.default_rng(7)
    z = rng.normal(size=(7, g.k)) + 1j * rng.normal(size=(7, g.k))
    v = np.linalg.qr(z)[0]
    bigger = embed_gram(g, v)
    assert np.abs(bigger.gram_matrix() - g.gram_matrix()).max() < 1e-12


def test_embed_gram_permutation():
    g = spectral_gram(states.werner(0.2))
    perm = np.eye(g.k)[[2, 0, 3, 1]]
    out = embed_gram(g, perm)
    assert np.abs(out.vectors - g.vectors[[2, 0, 3, 1]]).max() == 0


def test_embed_gram_rejects_non_isometry():
    g = spectral_gram(states.werner(0.2))
    with pytest.raises(NotIsometry):
        embed_gram(g, 2 * np.eye(g.k))


def test_connect_gram_identity_case():
    g = spectral_gram(states.random_density(2, 3, 4, seed=1))
    conn = connect_gram(g, g)
    assert conn.residual < 1e-12


def test_connect_gram_round_trip():
    g = spectral_gram(states.random_density(2, 3, 5, seed=2))
    rng = np.random.default_rng(11)
    u = states.random_unitary(g.k, rng)
    g2 = embed_gram(g, u)
    conn = connect_gram(g, g2)
    assert conn.residual < 1e-10
    assert conn.unitary_residual < 1e-10
    # the recovered unitary acts like the embedding on the span
    assert np.linalg.norm(conn.u @ g.vectors - g2.vectors, axis=0).max() < 1e-10


def test_connect_gram_spectral_vs_certificate_system():
    p = 0.2
    rho = states.werner(p)
    cert_system = fixtures.werner_certificate(p).gram_system()
    conn = connect_gram(spectral_gram(rho), cert_system)
    assert conn.residual < 1e-8


def test_connect_gram_mismatch():
    with pytest.raises(GramMismatch):
        connect_gram(spectral_gram(states.werner(0.1)),
                     spectral_gram(states.werner(0.3)))


def test_factor_maps_tabulated_werner():
    """With the base w_0n, the second factor map acts like the tabulated one
    on the base (off the span the completion is free)."""
    p = 0.2
    rho = states.werner(p)
    g = gram_from_decomposition(
        Decomposition(2, 2, fixtures.werner_spectral_terms(p)), rho)
    fm = factor_maps(g)
    f2 = fixtures.werner_factor_f2(p)
    for n in range(2):
        v = g.vector(0, n)
        assert np.linalg.norm(fm.maps[0] @ v - v) < 1e-12
        assert np.linalg.norm(fm.maps[1] @ v - f2 @ v) < 1e-12


def test_factor_maps_product_state_identity_on_span():
    # product operator |0><0| (x) sigma with full-rank sigma: F_0 acts as the
    # identity on the base it was built from
    sigma = np.diag([0.5, 0.3, 0.2])
    rho = densmat.validate_density(np.kron(np.diag([1.0, 0]), sigma), 2, 3)
    fm = factor_maps(spectral_gram(rho))
    for n in range(3):
        v = fm.base[:, n]
        assert np.linalg.norm(fm.maps[0] @ v - v) < 1e-12


def test_factor_maps_dependent_base():
    vec = np.kron([1, 0], np.array([1, 2, 1]) / np.sqrt(6))
    rho = densmat.validate_density(np.outer(vec, vec.conj()), 2, 3)
    # rank 1: the base w_0n lives in C^1, never independent across n
    with pytest.raises(DependentBase):
        factor_maps(spectral_gram(rho))


def test_factor_maps_random_residual():
    g = spectral_gram(states.random_density(2, 3, 6, seed=9))
    fm = factor_maps(g)
    assert fm.residual < 1e-10


def test_relate_decompositions_trivial():
    g = spectral_gram(states.random_density(2, 2, 4, seed=4))
    fm = factor_maps(g)
    rel = relate_decompositions(fm, fm)
    assert rel.residual < 1e-10


def test_relate_decompositions_werner_certificate():
    p = 0.2
    rho = states.werner(p)
    f1 = factor_maps(spectral_gram(rho))
    f2 = factor_maps(fixtures.werner_certificate(p).gram_system())
    rel = relate_decompositions(f1, f2)
    assert rel.residual < 1e-8
    assert np.abs(rel.v.conj().T @ rel.v - np.eye(4)).max() < 1e-10
    assert np.linalg.matrix_rank(rel.v_tilde) == 4


def test_relate_decompositions_randomized_k6():
    rho = states.random_density(2, 2, 4, seed=8)
    dec = spectral_decomposition(rho)
    rng = np.random.default_rng(21)
    z = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    w = np.linalg.qr(z)[0]
    dec6 = Decomposition(2, 2, w @ dec.terms)
    f1 = factor_maps(spectral_gram(rho))
    f2 = factor_maps(gram_from_decomposition(dec6, rho))
    rel = relate_decompositions(f1, f2)
    assert rel.residual < 1e-8


def looped_spectral_terms(rho):
    """The terms of spectral_decomposition with one gram.phase_fix per term."""
    evals, evecs = rho.spectrum
    keep = densmat.nonzero_eigenvalues(evals) & (evals > 0)
    lam = evals[keep][::-1]
    terms = np.array([gram.phase_fix(t) for t in (evecs[:, keep][:, ::-1] * np.sqrt(lam)).T])
    order = sorted(range(len(lam)),
                   key=lambda l: (-lam[l],) + tuple(zip(terms[l].real.round(12),
                                                        terms[l].imag.round(12))))
    return terms[order]


def test_stacked_phase_fix_is_the_per_vector_loop_bitwise():
    rng = np.random.default_rng(61)
    tie = np.array([[1.0, -1.0, 0.5, 1j]]).T  # first of equal magnitudes is the pivot
    cases = [tie] + [(rng.normal(size=(n, w)) + 1j * rng.normal(size=(n, w)))
                     * rng.uniform(1e-6, 1.0, w) for n, w in [(4, 1), (6, 3), (8, 8), (5, 0)]]
    for vecs in cases:
        want = np.array([gram.phase_fix(v) for v in vecs.T]).reshape(vecs.shape[::-1]).T
        got = gram.phase_fix_columns(vecs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for rho in (states.werner(0.3), states.horodecki97(0.4), states.random_density(2, 3, 4, 5),
                states.random_separable(2, 4, 1, seed=3)[0]):
        got = spectral_decomposition(rho).terms
        want = looped_spectral_terms(rho)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
