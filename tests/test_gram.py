"""Gram systems: construction, decompositions and embedding."""

import numpy as np
import pytest

from gramsep import densmat, gram, states
from gramsep.gram import (
    Decomposition, NotIsometry, embed_gram, gram_from_decomposition,
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
    state: their Gram matrices agree, and the fixed-convention tabulated
    vectors reproduce rho directly."""
    p = 0.2
    rho = states.werner(p)
    printed = gram_from_decomposition(
        Decomposition(2, 2, fixtures.werner_spectral_terms(p)), rho)
    assert printed.residual(rho) < 1e-14
    ours = spectral_gram(rho)
    assert np.abs(ours.gram_matrix() - printed.gram_matrix()).max() < 1e-14


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
