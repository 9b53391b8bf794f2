"""Validation, indexing, partial transposition and rank/PPT tests."""

import inspect

import numpy as np
import pytest

from gramsep import cli, densmat, gram, provec, sep, states, twoxn
from gramsep.densmat import (
    InputError, NotHermitian, NotPSD, SizeMismatch, TraceDeviation,
    is_ppt, numeric_rank, partial_transpose, product_index, validate_density,
)


def test_product_index_examples():
    assert product_index(0, 0, 4) == 0
    assert product_index(1, 3, 4) == 7
    assert product_index(1, 0, 4) == 4


def test_product_index_bijective():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m, n = rng.integers(2, 7), rng.integers(2, 9)
        i, j = int(rng.integers(0, m)), int(rng.integers(0, n))
        assert divmod(product_index(i, j, n), n) == (i, j)


def test_product_index_out_of_range():
    with pytest.raises(InputError):
        product_index(0, 4, 4)
    with pytest.raises(InputError):
        product_index(-1, 0, 4)


def test_validate_maximally_mixed():
    rho = validate_density(np.eye(4) / 4, 2, 2)
    assert rho.dim == 4
    assert not rho.unnormalized


def test_validate_werner():
    rho = states.werner(0.2)
    assert rho.dim_a == rho.dim_b == 2


def test_validate_tampered_werner_not_psd():
    mat = states.werner(0.2).mat.copy()
    mat[0, 3] = 2.0
    mat[3, 0] = 2.0
    with pytest.raises(NotPSD):
        validate_density(mat, 2, 2)


def test_validate_not_hermitian():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 0.2
    with pytest.raises(NotHermitian):
        validate_density(mat, 2, 2)


def test_validate_trace_and_size():
    with pytest.raises(TraceDeviation):
        validate_density(np.eye(4) / 2, 2, 2)
    with pytest.raises(SizeMismatch):
        validate_density(np.eye(5) / 5, 2, 2)
    # unnormalized flag disables the trace check
    rho = validate_density(np.eye(4) / 2, 2, 2, unnormalized=True)
    assert rho.unnormalized


def test_validate_rejects_non_finite_entries():
    """NaN passes every comparison of the Hermiticity test and inf makes
    m - m^dag warn; both are rejected before that arithmetic, on the largest
    entry the test takes anyway (the suite turns RuntimeWarning into errors)."""
    for value in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(0.1, np.nan)):
        mat = np.eye(4, dtype=complex) / 4
        mat[1, 2] = value
        for unnormalized in (False, True):
            with pytest.raises(InputError, match="NaN or infinite"):
                validate_density(mat, 2, 2, unnormalized=unnormalized)


def test_validate_rejects_the_zero_operator():
    for unnormalized in (True, False):
        with pytest.raises(InputError, match="zero operator"):
            validate_density(np.zeros((6, 6)), 2, 3, unnormalized=unnormalized)


def test_partial_transpose_diagonal_invariant():
    rho = validate_density(np.diag([0.4, 0.3, 0.2, 0.1]), 2, 2)
    assert np.abs(partial_transpose(rho, "A") - rho.mat).max() == 0.0


def test_partial_transpose_werner_entries_move():
    rho = states.werner(0.3)
    pt = partial_transpose(rho, "A")
    assert abs(pt[0, 3]) < 1e-15 and abs(pt[3, 0]) < 1e-15
    assert abs(pt[1, 2] - 0.15) < 1e-15 and abs(pt[2, 1] - 0.15) < 1e-15


def test_partial_transpose_involution_and_composition():
    rng = np.random.default_rng(1)
    for m, n in [(2, 2), (2, 3), (3, 4)]:
        g = rng.normal(size=(m * n, m * n)) + 1j * rng.normal(size=(m * n, m * n))
        h = g + g.conj().T
        ta = partial_transpose(h, "A", dims=(m, n))
        tb = partial_transpose(h, "B", dims=(m, n))
        assert np.abs(partial_transpose(ta, "A", dims=(m, n)) - h).max() < 1e-15
        assert np.abs(partial_transpose(tb, "B", dims=(m, n)) - h).max() < 1e-15
        # T_A after T_B is the full transpose
        full = partial_transpose(ta, "B", dims=(m, n))
        assert np.abs(full - h.T).max() < 1e-15
        # entry permutation: trace, Hermiticity and Frobenius norm survive
        assert abs(np.trace(ta) - np.trace(h)) < 1e-12
        assert densmat.hermitian_deviation(ta) < 1e-15
        assert abs(np.linalg.norm(ta) - np.linalg.norm(h)) < 1e-12


def test_partial_transpose_explicit_permutation():
    mat = np.arange(16, dtype=complex).reshape(4, 4)
    expected = np.array([
        [0, 1, 8, 9],
        [4, 5, 12, 13],
        [2, 3, 10, 11],
        [6, 7, 14, 15],
    ])
    assert np.abs(partial_transpose(mat, "A", dims=(2, 2)) - expected).max() == 0


def test_numeric_rank_identity_and_werner():
    assert numeric_rank(np.eye(4) / 4).rank == 4
    assert numeric_rank(states.werner(1.0).mat).rank == 1
    assert numeric_rank(states.horodecki97(0.5).mat).rank == 5


def test_numeric_rank_counts_negative_eigenvalues():
    assert numeric_rank(np.diag([1.0, -0.5, 0.0, 0.0])).rank == 2


def test_numeric_rank_unitary_invariance():
    rng = np.random.default_rng(2)
    for _ in range(10):
        h = np.diag(rng.uniform(0.1, 1.0, size=6))
        h[4, 4] = h[5, 5] = 0.0
        u = states.random_unitary(6, rng)
        assert numeric_rank(u @ h @ u.conj().T, rel_tol=1e-9).rank == 4


def test_is_ppt_werner():
    ok, mn = is_ppt(states.werner(0.2))
    assert ok and abs(mn - 0.1) < 1e-12
    ok, mn = is_ppt(states.werner(0.5))
    assert not ok and abs(mn + 0.125) < 1e-12
    ok, mn = is_ppt(validate_density(np.eye(4) / 4, 2, 2))
    assert ok and abs(mn - 0.25) < 1e-12


def test_is_ppt_true_for_random_separable():
    for seed in range(25):
        rho, _ = states.random_separable(2, 3, 4, seed=seed)
        assert is_ppt(rho)[0]


def test_eigensolver_contract():
    """Backward error of the Hermitian eigensolver on random 8x8 inputs."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (g + g.conj().T) / 2
        evals, evecs = np.linalg.eigh(h)
        assert np.linalg.norm(h @ evecs - evecs * evals) <= 1e-10 * np.linalg.norm(h)


def count_full_eigensolves(monkeypatch, dim):
    """Record every np.linalg.eigh/eigvalsh call on a dim x dim matrix."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _orig=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a)[-1] == dim:
                calls.append(_name)
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_one_eigensolve_per_spectrum(monkeypatch):
    """Validation, rank pattern, PPT and the kernels read the two cached
    spectra: one eigensolve of rho and one of rho^{T_A}."""
    psi = np.zeros(8)
    psi[[0, 5]] = 1 / np.sqrt(2)
    npt = 0.5 * np.outer(psi, psi) + 0.5 * np.eye(8) / 8
    calls = count_full_eigensolves(monkeypatch, 8)
    report = cli.analyze_state(validate_density(npt, 2, 4))
    assert report["verdict"] == "entangled_npt"
    assert len(calls) == 2

    horodecki = states.horodecki97(0.5).mat
    calls.clear()
    assert provec.find_product_vectors(validate_density(horodecki, 2, 4)) == []
    assert len(calls) == 2


def test_cached_spectra_are_read_only():
    rho = states.werner(0.3)
    with pytest.raises(ValueError):
        rho.spectrum[0][0] = 1.0
    with pytest.raises(ValueError):
        rho.pt_spectrum[1][0, 0] = 1.0
    evals, evecs = rho.spectrum
    assert np.allclose(rho.mat @ evecs, evecs * evals, atol=1e-14)


def test_state_json_round_trip():
    rho = states.horodecki97(0.7)
    again = densmat.state_from_json_dict(densmat.state_to_json_dict(rho))
    assert np.abs(again.mat - rho.mat).max() < 1e-15
    assert (again.dim_a, again.dim_b) == (2, 4)


def test_state_json_rejects_non_square():
    payload = {"m": 2, "n": 2, "data": [[[1.0, 0.0]] * 3] * 4}
    with pytest.raises(InputError):
        densmat.state_from_json_dict(payload)


def record_cases():
    """(record class, required fields in order with sample values, defaults)."""
    rho = states.werner(0.2)
    one, eye2 = np.ones((1, 2)), np.eye(2, dtype=complex)
    hit = provec.ProductVectorHit(0.5j, False, np.ones(2), np.ones(2), 0.0, 0.0)
    return [
        (densmat.DensityMatrix, dict(dim_a=2, dim_b=2, mat=rho.mat),
         dict(tol=densmat.DEFAULT_TOL, unnormalized=False)),
        (densmat.RankReport, dict(rank=1, eigenvalues=np.array([1.0, 0.0]), threshold=1e-9), {}),
        (gram.GramSystem, dict(dim_a=2, dim_b=2, vectors=np.eye(4, dtype=complex)), {}),
        (gram.Decomposition, dict(dim_a=2, dim_b=2, terms=np.eye(4, dtype=complex)), {}),
        (sep.SeparableDecomposition, dict(dim_a=2, dim_b=2, phis=one + 0j, psis=one + 0j), {}),
        (sep.DiagonalGramCertificate, dict(dim_a=2, dim_b=2, diagonals=one.T + 0j,
                                           frame=one.T + 0j), dict(basis_a=None, basis_b=None)),
        (sep.CertificateReport, dict(max_deviation=0.0, tol=1e-9), {}),
        (sep.FfcnmFamily, dict(k=2, matrices={(1, 0): eye2}), dict(diagnostics=None)),
        (sep.FfcnmReport, dict(normality=0.0, commutation=0.0, relation=0.0, tol=1e-8), {}),
        (twoxn.CanonicalForm2xN, dict(n=2, a=eye2, b=eye2, lam=one.T, lam_tilde=None,
                                      c_half=eye2, c_inv_half=eye2, ppt=True,
                                      a_minus_btb_min_eig=0.0), {}),
        (twoxn.ExtensionProblem, dict(b=eye2, lam=one.T, lam_tilde0=one), {}),
        (twoxn.ExtensionSolution, dict(matrix=eye2, s_block=eye2, r_block=eye2, t_block=eye2,
                                       normality_residual=0.0, equation_residual=0.0,
                                       accepted=True, method="m", mixing={}), {}),
        (provec.ProductVectorHit, dict(alpha=0.5j, at_infinity=False, e=np.ones(2),
                                       f=np.ones(2), residual_range=0.0,
                                       residual_pt_range=0.0), {}),
        (provec.EdgeVerdict, dict(verdict="not_edge", witness=hit, hits=(hit,)), {}),
    ]


RECORD_CASES = record_cases()


@pytest.mark.parametrize("cls, fields, defaults", RECORD_CASES,
                         ids=[case[0].__name__ for case in RECORD_CASES])
def test_records_keep_their_fields_and_stay_read_only(cls, fields, defaults):
    params = inspect.signature(cls).parameters
    assert list(params) == list(fields) + list(defaults)
    assert {name: params[name].default for name in defaults} == defaults
    for record in (cls(*fields.values()), cls(**fields)):
        for name, value in {**fields, **defaults}.items():
            got = getattr(record, name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(got, value)
            elif name != "diagnostics":
                assert got is value or got == value
            with pytest.raises(AttributeError):
                setattr(record, name, got)
            with pytest.raises(AttributeError):
                delattr(record, name)


ARRAY_RECORDS = [case for case in RECORD_CASES if issubclass(case[0], densmat.ReadOnly)
                 and any(isinstance(value, np.ndarray) for value in case[1].values())]


@pytest.mark.parametrize("cls, fields, defaults", ARRAY_RECORDS,
                         ids=[case[0].__name__ for case in ARRAY_RECORDS])
def test_records_leave_the_callers_arrays_writable(cls, fields, defaults):
    """A record stores read-only arrays of its own: an array that needs no
    conversion is copied, not frozen in the caller's hands."""
    given = {name: value.copy() if isinstance(value, np.ndarray) else value
             for name, value in fields.items()}
    record = cls(**given)
    for name, value in given.items():
        if isinstance(value, np.ndarray):
            assert value.flags.writeable and not getattr(record, name).flags.writeable
            value[...] = 0
            assert np.array_equal(getattr(record, name), fields[name])


def test_validate_density_leaves_the_callers_array_writable():
    mat = np.eye(4, dtype=complex) / 4
    rho = validate_density(mat, 2, 2)
    assert mat.flags.writeable and not rho.mat.flags.writeable
    mat[0, 0] = 1.0
    assert rho.mat[0, 0] == 0.25


def test_family_diagnostics_are_a_new_dict_per_family():
    first, second = sep.FfcnmFamily(1, {}), sep.FfcnmFamily(1, {})
    assert first.diagnostics == {} and first.diagnostics is not second.diagnostics
    given = {"normality": 0.0}
    assert sep.FfcnmFamily(1, {}, given).diagnostics is given

