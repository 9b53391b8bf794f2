"""CLI subcommands, report invariants and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gramsep import cli, densmat, provec, sep, states, twoxn

import fixtures


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, rho):
    path = tmp_path / name
    path.write_text(json.dumps(densmat.state_to_json_dict(rho)))
    return str(path)


def test_gen_and_analyze_separable_werner(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "werner", "--p", "0.2",
                           "-o", str(tmp_path / "w.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "w.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "separable_certified"
    assert rep["terms"] <= 4
    assert rep["solver"]["starts"] == 1
    assert isinstance(rep["solver"]["nfev"], int) and rep["solver"]["nfev"] >= 1
    assert rep["residuals"]["certificate"] <= 1e-8
    # the embedded certificate is self-verifying
    cert = sep.certificate_from_json_dict(rep["certificate"])
    check = sep.verify_certificate(cert, states.werner(0.2), tol=1e-8)
    assert check.passed


def test_analyze_npt_werner(tmp_path, capsys):
    path = write_state(tmp_path, "w5.json", states.werner(0.5))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "entangled_npt"
    assert rep["ppt"] is False
    assert abs(rep["ppt_min_eigenvalue"] + 0.125) < 1e-10
    assert rep["certificate"] is None


def test_analyze_horodecki_range_verdict(tmp_path, capsys):
    path = write_state(tmp_path, "h.json", states.horodecki97(0.5))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "entangled_range"
    assert rep["case"] == "(5,5)"
    assert rep["solver"]["accepted"] is False


def test_analyze_pure_product(tmp_path, capsys):
    rho, _ = states.random_separable(2, 4, 1, seed=8)
    path = write_state(tmp_path, "p.json", rho)
    code, out, _ = run_cli(capsys, "analyze", path)
    rep = json.loads(out)
    assert rep["verdict"] == "separable_certified"
    assert rep["terms"] == 1


def test_analyze_singular_block_fallbacks():
    # A side concentrated on |0>: the lower-right block vanishes and the
    # pipeline canonicalizes the A-swapped state instead
    psis = np.array([[1, 0], [0.6, 0.8]], dtype=complex) / np.sqrt(2)
    phis = np.array([[1, 0], [1, 0]], dtype=complex)
    sd = sep.SeparableDecomposition(2, 2, phis, psis)
    rho = densmat.validate_density(sd.density() / np.trace(sd.density()).real, 2, 2)
    rep = cli.analyze_state(rho)
    assert rep["verdict"] == "separable_certified"
    assert rep["residuals"]["certificate"] < 1e-10

    # B side supported on a 2-dim subspace of C^3: deflate, solve, lift back
    rng = np.random.default_rng(3)
    phis = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    psis2 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    iso = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))[0]
    sd = sep.SeparableDecomposition(2, 3, phis, psis2 @ iso.T)
    rho = densmat.validate_density(sd.density() / np.trace(sd.density()).real, 2, 3)
    rep = cli.analyze_state(rho)
    assert rep["verdict"] == "separable_certified"
    assert rep["residuals"]["certificate"] < 1e-10


def test_analyze_canonicalizes_with_both_diagonal_blocks_singular():
    # (|0><0| (x) P + |1><1| (x) (I - P)) / N: both diagonal blocks are
    # singular and tr_A rho is I / N, so only the A-basis rotation helps
    for n in (2, 3, 4):
        proj = np.diag([1.0] * (n // 2) + [0.0] * (n - n // 2))
        mat = np.kron(np.diag([1.0, 0.0]), proj) + np.kron(np.diag([0.0, 1.0]), np.eye(n) - proj)
        rep = cli.analyze_state(densmat.validate_density(mat / n, 2, n))
        assert rep["rank"] == n
        assert rep["verdict"] == "separable_certified", rep.get("note")


def test_analyze_certifies_a_one_dimensional_b_support():
    """sigma_A (x) |f><f| has both diagonal blocks singular and tr_A rho of
    rank one; it is certified from the eigenvectors of sigma_A."""
    rng = np.random.default_rng(5)
    f3 = rng.normal(size=3) + 1j * rng.normal(size=3)
    sigma = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    for a, f in ((np.eye(2) / 2, np.eye(2)[0]), (np.eye(2) / 2, np.eye(3)[0]),
                 (sigma, f3 / np.linalg.norm(f3))):
        rho = densmat.validate_density(np.kron(a, np.outer(f, f.conj())), 2, len(f))
        rep = cli.analyze_state(rho)
        assert (rep["verdict"], rep["terms"]) == ("separable_certified", 2), rep.get("note")
        assert rep["residuals"]["certificate"] <= 1e-12
        cert = sep.certificate_from_json_dict(rep["certificate"])
        assert sep.verify_certificate(cert, rho, tol=1e-12).passed


def test_timings_cover_the_certificate_check():
    """--timings has a verify stage where certify() runs; reports without
    timings carry no timing at all."""
    rep = cli.analyze_state(states.werner(0.2), with_timings=True)
    assert rep["verdict"] == "separable_certified"
    assert set(rep["timings"]) == {"spectral", "canonical", "solver", "extract", "verify"}
    rep = cli.analyze_state(states.werner(0.5), with_timings=True)
    assert rep["verdict"] == "entangled_npt" and "verify" not in rep["timings"]
    assert "timings" not in cli.analyze_state(states.werner(0.2))


def test_scalar_completion_decides_every_n():
    """(N+1, N+1) states go to the scalar solver on every N; a rejection
    claims entanglement only on 2x4, where it is the range criterion."""
    for n in (2, 3, 5, 6):
        for seed in range(3):
            rep = cli.analyze_state(states.random_separable(2, n, n + 1, seed)[0])
            assert rep["case"] == f"({n + 1},{n + 1})"
            assert rep["verdict"] == "separable_certified"
            assert rep["solver"]["method"] == "rank1_linear"
    rep = cli.analyze_state(fixtures.horodecki_2x5_product_mixture())
    assert (rep["case"], rep["ppt"]) == ("(6,6)", True)
    assert rep["verdict"] == "ppt_undecided"
    assert rep["solver"]["method"] == "rank1_linear" and not rep["solver"]["accepted"]


def test_scalar_completion_at_infinity_is_solved_in_a_turned_basis():
    """A separable (N+1)-term state with a product term on A-side |0> needs
    s = infinity in its canonical frame; a turned A basis makes s finite.
    Reading that as no completion would claim entangled_range on 2x4.  A
    second term on the vector that the turn sends to |0> puts s at infinity
    in both frames: that state must stay undecided."""
    def state(n, phi1=None):
        rng = np.random.default_rng(n)
        phis = rng.normal(size=(n + 1, 2)) + 1j * rng.normal(size=(n + 1, 2))
        phis[0] = (1, 0)
        if phi1 is not None:
            phis[1] = phi1
        psis = rng.normal(size=(n + 1, n)) + 1j * rng.normal(size=(n + 1, n))
        mat = sep.SeparableDecomposition(2, n, phis, psis).density()
        return densmat.validate_density(mat / np.trace(mat).real, 2, n)

    for n in (3, 4, 5):
        rho = state(n)
        ep = twoxn.known_part(twoxn.canonical_form(rho))
        assert twoxn.solve_extension_55(ep).mixing == {"at_infinity": True}
        rep = cli.analyze_state(rho)
        assert rep["verdict"] == "separable_certified"
        assert rep["solver"]["method"] == "rank1_linear" and rep["solver"]["accepted"]
    rep = cli.analyze_state(state(4, phi1=(0.6, -0.8)))
    assert rep["verdict"] == "ppt_undecided" and rep["solver"]["at_infinity"]


def test_analyze_byte_identical(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.25))
    _, out1, _ = run_cli(capsys, "analyze", path, "--seed", "7")
    _, out2, _ = run_cli(capsys, "analyze", path, "--seed", "7")
    assert out1 == out2


def test_analyze_56_byte_identical_in_process():
    """A separable (5,6) state is certified from its product-vector hits.
    With two A vectors 1e-5 apart the fit over them fails, and the grid
    certifies the state; both reports are byte-identical on repeat."""
    for rho, method in ((fixtures.separable_56(1)[0], "product_vector_cone"),
                        (fixtures.separable_56(1, gap=1e-5)[0], "alpha_beta_grid")):
        first, second = (json.dumps(cli.analyze_state(rho), sort_keys=True, default=float)
                         for _ in range(2))
        assert json.loads(first)["solver"]["method"] == method
        assert json.loads(first)["verdict"] == "separable_certified"
        assert first == second


def test_grid_survives_a_long_descent_with_vanishing_damping():
    """A (5,6) Horodecki range mixture, built from ``bench/inputs.py``
    (``ppt-2x4`` seed 1202, ``range-mix#9``).  From the scan's best cell the
    descent heads for a nonzero minimum, and the stall stop ends it within
    a few dozen evaluations, once |f|^2 has all but stopped falling.
    Without the stall stop it would run to the 4,000-evaluation cap on the
    damping floor, which
    ``test_twoxn.py::test_descend_survives_a_vanishing_damping`` covers.
    ``analyze`` no longer reaches the grid on this state, so the grid is
    called directly."""
    path = Path(__file__).with_name("range_mix_1202_9.json")
    rho = densmat.state_from_json_dict(json.loads(path.read_text()))
    sol = twoxn.solve_extension_56(twoxn.known_part(twoxn.canonical_form(rho)))
    assert not sol.accepted
    assert np.isfinite(sol.normality_residual)
    assert sol.mixing["nfev"] <= 100


SOLVER_MISSES = ["sep56_7_0.json", "sep56_2014_2.json", "sep56_2019_5.json",
                 "mix_2x4_k6_1817_1.json", "mix_2x5_k7_2015_4.json"]


@pytest.mark.parametrize("name", SOLVER_MISSES)
def test_product_vector_cone_certifies_the_solver_misses(name):
    """Separable states that the (5,6) grid or the 12-start descent left
    undecided, from ``bench/inputs.py``: ``ppt-2x4`` seeds 7, 2014 and 2019
    (``sep56#0``, ``#2``, ``#5``) and ``certify-2xN`` seeds 1817
    (``mix-2x4-k6#1``) and 2015 (``mix-2x5-k7#4``, a (7,7) state the descent
    left at 6.2e-3).  The product-vector search is complete on their
    patterns, so the fit over its hits decomposes them, and the certificate
    is re-verified like every other."""
    rho = densmat.state_from_json_dict(json.loads(Path(__file__).with_name(name).read_text()))
    report = cli.analyze_state(rho)
    assert report["verdict"] == "separable_certified"
    assert report["solver"]["method"] == "product_vector_cone"
    assert report["solver"]["fit_residual"] <= 1e-8
    assert report["terms"] <= report["solver"]["hits"]
    cert = sep.certificate_from_json_dict(report["certificate"])
    assert sep.verify_certificate(cert, rho, tol=1e-8).passed


def test_product_vector_cone_certifies_every_random_246_mixture():
    """random_separable(2, 4, 6) has rank pattern (6,6), the determinant
    case; seeds 0-59 are all certified, seed 17 included, which the
    12-start descent left undecided."""
    for seed in range(60):
        report = cli.analyze_state(states.random_separable(2, 4, 6, seed=seed)[0])
        assert report["verdict"] == "separable_certified", seed
        assert report["solver"]["method"] == "product_vector_cone", seed


def test_product_vector_cone_certifies_every_folded_mixture():
    """random_separable(2, N, K) has kernel dims (2N - K, 2N - K), so its
    PT rows fold into d = K - N >= 2 rows: 2x5 K = 7, 2x6 K = 8 and 2x7
    K = 9, 10, seeds 0-29, are all certified from their hits."""
    for n, terms in ((5, 7), (6, 8), (7, 9), (7, 10)):
        for seed in range(30):
            report = cli.analyze_state(states.random_separable(2, n, terms, seed=seed)[0])
            assert report["verdict"] == "separable_certified", (n, terms, seed)
            assert report["solver"]["method"] == "product_vector_cone", (n, terms, seed)


def _embedded(rho, n_big, seed):
    """rho with its B side carried into C^n_big by a random isometry, so
    that tr_A of the result has rank rho.dim_b < n_big."""
    rng = np.random.default_rng(seed)
    shape = (n_big, rho.dim_b)
    y = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    iso = np.kron(np.eye(2), y)
    return densmat.validate_density(iso @ rho.mat @ iso.conj().T, 2, n_big)


def _separable_78(seed):
    """Seven product terms on 2x5 plus an eighth product vector in their
    range: rank pattern (7,8), kernel dims (3,2), like separable_56."""
    rho7, sd7 = states.random_separable(2, 5, 7, seed=seed)
    psi0, psi1 = provec._row_blocks(rho7)[:2]
    alpha = complex(*np.random.default_rng(seed).normal(size=2))
    f = np.linalg.svd(psi0 + alpha * psi1)[2][-1].conj() / np.sqrt(7)
    phis = np.vstack([sd7.phis, np.array([1, alpha]) / np.sqrt(1 + abs(alpha) ** 2)])
    mat = sep.SeparableDecomposition(2, 5, phis, np.vstack([sd7.psis, f])).density()
    return densmat.validate_density(mat / np.trace(mat).real, 2, 5)


@pytest.mark.parametrize("make, n_big", [(lambda seed: fixtures.separable_56(seed)[0], 5),
                                         (lambda seed: states.random_separable(2, 4, 6, seed)[0], 5),
                                         (_separable_78, 6)],
                         ids=["separable_56", "random_separable_246", "separable_78"])
def test_deficient_b_support_keeps_the_cone(make, n_big):
    """Embedded one dimension up, a state keeps its ranks, so its kernel
    dims grow by 2 each: (5,4) on 2x5 for a (5,6) state, where rho's own
    search is not complete; (4,4) on 2x5 for a (6,6) state and (5,4) on 2x6
    for a (7,8) state, where it meets a continuum.  Only the deflated state
    makes the search complete, and the cone certifies every one from it."""
    for seed in range(8):
        rho = make(seed)
        report = cli.analyze_state(_embedded(rho, n_big, seed))
        assert report["case"] == "({},{})".format(*densmat.rank_pattern(rho)), seed
        got = (report["verdict"], report["solver"]["method"])
        assert got == ("separable_certified", "product_vector_cone"), seed


def test_real_a_vectors_stay_self_transpose_although_the_cone_could_fit():
    """Six product terms with real A vectors on 2x4: rho = rho^{T_A} of rank
    pattern (6,6), the complete case k + k' = N.  The exact self-transpose
    branch comes first."""
    rng = np.random.default_rng(11)
    phis = rng.normal(size=(6, 2)).astype(complex)
    psis = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    mat = sep.SeparableDecomposition(2, 4, phis, psis).density()
    rho = densmat.validate_density(mat / np.trace(mat).real, 2, 4)
    report = cli.analyze_state(rho)
    assert report["case"] == "(6,6)"
    assert (report["verdict"], report["solver"]["method"]) == ("separable_certified", "self_pt")


def test_cone_decides_56_states_without_the_canonical_frame(monkeypatch):
    """The (5,6) pattern never reaches the exact branches, so the cone reads
    rho's kernels and a state it decides, certified or not, builds no
    canonical frame: its timings have no canonical stage."""
    calls = []
    real = twoxn.canonical_form
    monkeypatch.setattr(twoxn, "canonical_form", lambda rho: calls.append(rho) or real(rho))
    for name, verdict in (("sep56_7_0.json", "separable_certified"),
                          ("sep56_2014_2.json", "separable_certified"),
                          ("range_mix_1202_9.json", "ppt_undecided")):
        rho = densmat.state_from_json_dict(json.loads(Path(__file__).with_name(name).read_text()))
        report = cli.analyze_state(rho, with_timings=True)
        assert report["case"] == "(5,6)", name
        assert (report["verdict"], report["solver"]["method"]) == (verdict, "product_vector_cone")
        assert "canonical" not in report["timings"], name
    assert calls == []


def test_range_mixture_with_an_isolated_unfitting_hit_runs_no_solver():
    """The range mixture of ``range_mix_1202_9.json`` has one hit, isolated,
    which does not fit it: no product decomposition exists, so it stays
    undecided without a solver, and the report gives the count and the fit."""
    path = Path(__file__).with_name("range_mix_1202_9.json")
    report = cli.analyze_state(densmat.state_from_json_dict(json.loads(path.read_text())))
    assert report["case"] == "(5,6)" and report["verdict"] == "ppt_undecided"
    assert set(report["solver"]) == {"method", "hits", "fit_residual"}
    assert report["solver"]["method"] == "product_vector_cone"
    assert report["solver"]["hits"] == 1 and report["solver"]["fit_residual"] > 1e-8


def test_edge_56_state_without_hits_runs_no_solver(monkeypatch):
    """A (5,6) edge state has no hit, so no product decomposition: it stays
    undecided (never entangled_*) and no completion solver runs."""
    def boom(*args, **kwargs):
        raise AssertionError("a completion solver ran")

    monkeypatch.setattr(twoxn, "solve_extension_56", boom)
    monkeypatch.setattr(twoxn, "solve_extension_general", boom)
    report = cli.analyze_state(fixtures.ppt56_state(0))
    assert report["case"] == "(5,6)" and report["verdict"] == "ppt_undecided"
    assert report["solver"] == {"method": "product_vector_cone", "hits": 0}


def _unfitting_isolated_hit_sets():
    """(name, state): PPT (5,6) and (6,6) states whose isolated hits are
    independent and do not fit them."""
    path = Path(__file__).with_name("range_mix_1202_9.json")
    yield path.name, densmat.state_from_json_dict(json.loads(path.read_text()))
    for b in (0.2, 0.5, 0.8):
        for seed in range(3):
            yield f"horodecki_range_mixture({b}, {seed})", fixtures.horodecki_range_mixture(b, seed)[0]
    yield "ppt66_state(0)", fixtures.ppt66_state(0)


def test_isolated_hits_that_do_not_fit_run_no_solver(monkeypatch):
    """Where the search is isolated, every term of a product decomposition
    is a hit; independent hit projectors that do not fit rho leave none, so
    the state stays undecided (never entangled_*) and no solver runs."""
    def boom(*args, **kwargs):
        raise AssertionError("a completion solver ran")

    monkeypatch.setattr(twoxn, "solve_extension_56", boom)
    monkeypatch.setattr(twoxn, "solve_extension_general", boom)
    for name, rho in _unfitting_isolated_hit_sets():
        report = cli.analyze_state(rho)
        assert report["verdict"] == "ppt_undecided", name
        assert set(report["solver"]) == {"method", "hits", "fit_residual"}, name
        assert report["solver"]["method"] == "product_vector_cone", name
        assert report["solver"]["hits"] >= 1 and report["solver"]["fit_residual"] > 1e-8, name
        assert "no solver runs" in report["note"], name


@pytest.mark.parametrize("state, hits", [("ppt56_state", 0), ("range_mix", 1)])
def test_search_that_is_not_isolated_hands_the_state_to_the_grid(monkeypatch, state, hits):
    """The same searches, taken as not isolated, prove nothing: the grid runs
    on the edge state without hits and on the range mixture with its one hit."""
    from gramsep import provec

    if state == "ppt56_state":
        rho = fixtures.ppt56_state(0)
    else:
        rho = next(_unfitting_isolated_hit_sets())[1]
    found = provec.search_product_vectors(rho)
    assert found.isolated and len(found.hits) == hits
    monkeypatch.setattr(provec, "search_product_vectors",
                        lambda rho: provec.ProductVectorSearch(found.hits, False))
    report = cli.analyze_state(rho)
    assert report["verdict"] == "ppt_undecided"
    assert report["solver"]["method"] == "alpha_beta_grid"
    assert report["solver"]["hits"] == hits and "fit_residual" not in report["solver"]


NEAR_COINCIDENT = [("separable_56", 12, 1e-5, "alpha_beta_grid"),
                   ("separable_56", 4, 1e-4, "alpha_beta_grid"),
                   ("separable_56", 3, 1e-5, "alpha_beta_grid"),
                   ("separable_66", 0, 0.0, "multistart_lm"),
                   ("separable_66", 8, 1e-3, "multistart_lm")]


@pytest.mark.parametrize("maker, seed, gap, method", NEAR_COINCIDENT)
def test_near_coincident_a_vectors_are_not_isolated_and_still_certified(maker, seed, gap, method):
    """Two A vectors close together or shared: the search can lose hits to
    rounding, or report one f of a 2-dim f space, so it is not isolated,
    its failed fit proves nothing, and the grid or the descent certifies."""
    from gramsep import provec

    rho = getattr(fixtures, maker)(seed, gap)[0]
    assert not provec.search_product_vectors(rho).isolated
    report = cli.analyze_state(rho)
    assert report["verdict"] == "separable_certified"
    assert report["solver"]["method"] == method


def test_near_pair_77_states_are_certified_and_never_take_the_no_solver_exit():
    """Separable 2x5 (7,7) states, kernel dims (3, 3), with two A vectors
    ``gap`` apart: the search folds the PT rows into d = 2 rows.  From
    gap 1e-3 down it is not isolated, so a fit that misses proves nothing,
    and every state is certified, by the cone fit or by the descent."""
    from gramsep import provec

    for gap in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for seed in range(40):
            rho = fixtures.separable_66(seed, gap, n=5, k=7)[0]
            assert densmat.rank_pattern(rho) == (7, 7)
            if gap <= 1e-3:
                assert not provec.search_product_vectors(rho).isolated, (seed, gap)
            assert cli.analyze_state(rho)["verdict"] == "separable_certified", (seed, gap)


@pytest.mark.parametrize("pattern", [(7, 6), (8, 6)])
def test_ppt_2x5_states_of_unequal_kernel_dims_are_never_entangled(pattern):
    """PPT 2x5 states of kernel dims (3, 4) and (2, 4), from alternating
    projections, fold the PT rows into d = 2 and 3 rows: the complete
    search finds no product vector, and the state stays ppt_undecided."""
    made = [rho for rho in (fixtures._ppt_alternating(seed, *pattern, 600, n=5)
                            for seed in range(8)) if rho is not None]
    assert len(made) >= 4
    for rho in made:
        report = cli.analyze_state(rho)
        assert report["verdict"] == "ppt_undecided"
        assert report["solver"]["method"] == "product_vector_cone"


def test_shared_a_vector_66_state_is_certified_by_the_solver():
    """Two terms on one A vector give that hit a 2-dim f space, of which the
    search reports one f: the fit fails and the descent certifies it."""
    report = cli.analyze_state(fixtures.separable_66(0, gap=0.0)[0])
    assert report["case"] == "(6,6)" and report["verdict"] == "separable_certified"
    assert report["solver"]["method"] == "multistart_lm"
    assert report["solver"]["hits"] == 5


def test_near_coincident_56_state_is_certified_by_the_grid():
    """Two A vectors 1e-5 apart leave their two hits nearly dependent, and
    the fit over all six misses by about 1e-7; the (5,6) grid certifies."""
    report = cli.analyze_state(fixtures.separable_56(3, gap=1e-5)[0])
    assert report["case"] == "(5,6)" and report["verdict"] == "separable_certified"
    assert report["solver"]["method"] == "alpha_beta_grid"
    assert report["solver"]["hits"] == 6


def _ppt_boundary_mixtures():
    """random_density(2, 3, r), r = 2..6, mixed with I/6 to its PPT
    boundary (weight s* of the state, where the least PT eigenvalue
    vanishes) and to 0.9 s*, inside the PPT set."""
    for r in range(2, 7):
        rho = states.random_density(2, 3, r, seed=0)
        least = np.linalg.eigvalsh(densmat.partial_transpose(rho))[0]
        boundary = (1 / 6) / (1 / 6 - least)
        for weight in (boundary, 0.9 * boundary):
            yield (f"random_density(2, 3, {r}) at {weight / boundary:.1f} s*",
                   densmat.validate_density(weight * rho.mat + (1 - weight) * np.eye(6) / 6,
                                            2, 3))


def test_product_subtraction_certifies_every_ppt_2x3_state_without_a_descent(monkeypatch):
    """On 2x3 PPT is separability: separable mixtures of 5 to 10 terms and
    PPT mixtures with the maximally mixed state, on the boundary and inside
    it, are all certified by subtracting at most three product projectors
    down to an exactly decided remainder, with no descent."""
    def boom(*args, **kwargs):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(twoxn, "solve_extension_general", boom)
    cases = [(f"random_separable(2, 3, {k}, seed={seed})",
              states.random_separable(2, 3, k, seed=seed)[0])
             for k in range(5, 11) for seed in range(5)]
    for name, rho in cases + list(_ppt_boundary_mixtures()):
        report = cli.analyze_state(rho)
        assert report["verdict"] == "separable_certified", name
        assert report["solver"]["method"] == "product_subtraction", name
        assert 1 <= report["solver"]["subtractions"] <= 3, name
        assert report["residuals"]["certificate"] <= 1e-12, name
        cert = sep.certificate_from_json_dict(report["certificate"])
        assert sep.verify_certificate(cert, rho, tol=1e-12).passed, name


def test_product_subtraction_report_is_byte_identical_in_process_and_cli(tmp_path, capsys):
    rho = states.random_separable(2, 3, 7, seed=3)[0]
    path = write_state(tmp_path, "s.json", rho)
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    report = json.loads(out)
    in_process = cli.analyze_state(densmat.state_from_json_dict(json.loads(Path(path).read_text())))
    in_process["input"] = report["input"]
    assert out == json.dumps(in_process, sort_keys=True, indent=2, default=float) + "\n"
    solver = report["solver"]
    assert solver["method"] == "product_subtraction"
    assert solver["remainder"]["method"] == "product_vector_cone"
    assert report["terms"] == solver["subtractions"] + solver["remainder"]["hits"]


def test_entangled_ppt_2x4_state_never_enters_the_subtraction(monkeypatch):
    """horodecki97(0.5) with 1% of I/8 is PPT, entangled and of full rank:
    the subtraction is for 2x3 only, so it stays undecided after the descent."""
    from gramsep import provec

    def boom(*args, **kwargs):
        raise AssertionError("the subtraction ran")

    monkeypatch.setattr(provec, "subtract_product_projectors", boom)
    rho = densmat.validate_density(0.99 * states.horodecki97(0.5).mat + 0.01 * np.eye(8) / 8,
                                   2, 4)
    report = cli.analyze_state(rho)
    assert report["case"] == "(8,8)" and report["ppt"]
    assert report["verdict"] == "ppt_undecided"
    assert report["solver"]["method"] == "multistart_lm"


def test_failed_remainder_falls_back_to_the_descent(monkeypatch):
    """A remainder whose exact branch fails (here the cone fit raising)
    leaves the input to the descent, with the report it had before."""
    from gramsep import provec

    def degenerate(*args, **kwargs):
        raise provec.DegenerateSystem("forced")

    monkeypatch.setattr(provec, "fit_product_cone", degenerate)
    report = cli.analyze_state(states.random_separable(2, 3, 8, seed=0)[0])
    assert report["case"] == "(6,6)" and report["verdict"] == "separable_certified"
    assert report["solver"]["method"] == "multistart_lm"
    assert set(report["solver"]) == {"method", "normality_residual", "equation_residual",
                                     "accepted", "starts", "nfev"}


def test_werner_keeps_the_descent():
    """2x2 states keep the descent, which certifies werner(0.2) in four terms."""
    report = cli.analyze_state(states.werner(0.2))
    assert report["verdict"] == "separable_certified"
    assert report["solver"]["method"] == "multistart_lm"
    assert report["terms"] <= 4


def test_tol_before_or_after_subcommand(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.2))
    for argv in (("--tol", "1e-3", "analyze", path), ("analyze", path, "--tol", "1e-3")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["tolerances"]["validation"] == 1e-3


def test_tol_covers_hermiticity_of_analyze_and_provec(tmp_path, capsys):
    # a relative Hermitian deviation of 1e-7, accepted at --tol 1e-6
    mat = states.werner(0.2).mat.copy()
    mat[0, 1] += 3e-8
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "data": densmat.matrix_to_lists(mat)}))
    code, out, _ = run_cli(capsys, "--tol", "1e-6", "analyze", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] in ("separable_certified", "ppt_undecided")
    code, out, _ = run_cli(capsys, "--tol", "1e-6", "provec", str(path))
    assert code == 0
    assert json.loads(out)["case"] == "(4,4)"


def test_canonical_fallbacks_revalidate_at_state_tol():
    # the A-swap (2x2) and the B-support deflation (2x3, after the swap)
    # rebuild states that carry the input's Hermitian deviation of 1e-7
    for n, diag in ((2, [0.25, 0.25, 0.5, 0.0]), (3, [0.2, 0.3, 0.0, 0.5, 0.0, 0.0])):
        mat = np.diag(diag).astype(complex)
        mat[0, 1] += 5e-8
        rho = densmat.validate_density(mat, 2, n, tol=1e-6)
        rep = cli.analyze_state(rho, tol=1e-6)
        assert rep["verdict"] in ("separable_certified", "ppt_undecided")


def test_analyze_strict_flag(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.1))
    code, out, _ = run_cli(capsys, "analyze", path, "--strict")
    assert code == 0
    assert json.loads(out)["verdict"] == "separable_certified"


def test_gram_subcommand(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.2))
    code, out, _ = run_cli(capsys, "gram", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 4
    vec = np.array(payload["vectors"]["0,0"])
    w = vec[:, 0] + 1j * vec[:, 1]
    # Gram identity against the state itself
    rho = states.werner(0.2)
    vecs = {key: np.array(val)[:, 0] + 1j * np.array(val)[:, 1]
            for key, val in payload["vectors"].items()}
    for (i, j) in [((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 0), (1, 1))]:
        lhs = np.vdot(vecs[f"{i[0]},{i[1]}"], vecs[f"{j[0]},{j[1]}"])
        assert abs(lhs - rho.mat[i[0] * 2 + i[1], j[0] * 2 + j[1]]) < 1e-10
    assert abs(np.linalg.norm(w) ** 2 - rho.mat[0, 0]) < 1e-12


def test_canonical_subcommand(tmp_path, capsys):
    path = write_state(tmp_path, "h.json", states.horodecki97(0.5))
    code, out, _ = run_cli(capsys, "canonical", path)
    assert code == 0
    payload = json.loads(out)
    b = np.array(payload["b"])[:, :, 0] + 1j * np.array(payload["b"])[:, :, 1]
    bmat, _, _ = states.horodecki97_blocks(0.5)
    assert np.abs(b - bmat).max() < 1e-10
    assert payload["p"] == 1 and payload["p_tilde"] == 1 and payload["ppt"]


def test_provec_subcommand(tmp_path, capsys):
    rho, _ = states.random_separable(2, 4, 5, seed=42)
    path = write_state(tmp_path, "s.json", rho)
    code, out, _ = run_cli(capsys, "provec", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "(5,5)"
    assert len(payload["hits"]) == 5
    worst = max(max(h["residuals"].values()) for h in payload["hits"])
    assert worst <= 1e-8


def test_provec_subcommand_degenerate(tmp_path, capsys):
    # the second state's determinants vanish only up to rounding
    for name, rho in (("h1.json", states.horodecki97(1.0)),
                      ("c.json", fixtures.continuum_56_npt())):
        path = write_state(tmp_path, name, rho)
        code, out, _ = run_cli(capsys, "provec", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["degenerate"] == "continuum"


def test_ffcnm_verify_subcommand(tmp_path, capsys):
    rho, sd = states.random_separable(2, 3, 5, seed=2)
    cert = sep.decomposition_to_certificate(sd)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(sep.certificate_to_json_dict(cert)))
    state_path = write_state(tmp_path, "s.json", rho)
    code, out, _ = run_cli(capsys, "ffcnm-verify", str(cert_path), state_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["family"]["normality"] < 1e-9


def test_ffcnm_verify_computes_each_family_residual_once(tmp_path, capsys, monkeypatch):
    """A three-term 3x3 certificate has a family of three matrices, so three
    normality and three commutation residuals; build_ffcnm computes them,
    and the report reads them from its diagnostics."""
    rho, sd = states.random_separable(3, 3, 3, seed=2)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(sep.certificate_to_json_dict(
        sep.decomposition_to_certificate(sd))))
    state_path = write_state(tmp_path, "s.json", rho)
    calls = {"normality_residual": 0, "commutation_residual": 0}
    for name in calls:
        def counted(*args, _real=getattr(sep, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(sep, name, counted)
    code, out, _ = run_cli(capsys, "ffcnm-verify", str(cert_path), state_path)
    assert code == 0 and json.loads(out)["passed"]
    assert calls == {"normality_residual": 3, "commutation_residual": 3}


def test_ffcnm_verify_input_errors(tmp_path, capsys):
    rho, sd = states.random_separable(2, 2, 3, seed=2)
    payload = sep.certificate_to_json_dict(sep.decomposition_to_certificate(sd))
    cert_path = tmp_path / "cert.json"
    state_2x3 = write_state(tmp_path, "s3.json", states.random_separable(2, 3, 4, seed=2)[0])
    state_2x2 = write_state(tmp_path, "s2.json", rho)
    wrong_basis = dict(payload, basis_a=densmat.matrix_to_lists(np.eye(3)))
    for cert, state in [(dict(payload, m="x"), state_2x2), (payload, state_2x3),
                        (wrong_basis, state_2x2)]:
        cert_path.write_text(json.dumps(cert))
        code, _, err = run_cli(capsys, "ffcnm-verify", str(cert_path), state)
        assert code == 1 and err.startswith("input error: ")


def test_ffcnm_verify_rejects_a_local_basis_that_is_not_unitary(tmp_path, capsys):
    """With a zero A basis, d = 1 and v = 0 reproduce the zero matrix, so
    that certificate would pass against any state, here an NPT one.  A local
    basis that is not unitary, or holds a NaN, is an input error."""
    state = str(tmp_path / "npt.json")
    code, _, _ = run_cli(capsys, "gen", "random", "--m", "2", "--n", "2", "--r", "4",
                         "--seed", "3", "-o", state)
    assert code == 0
    one, zero, nan = [1.0, 0.0], [0.0, 0.0], [float("nan"), 0.0]
    cert = {"m": 2, "n": 2, "d": [[one], [one]], "v": [[zero], [zero]]}
    cert_path = tmp_path / "cert.json"
    for basis in ([[zero, zero], [zero, zero]], [[one, nan], [zero, one]]):
        cert_path.write_text(json.dumps(dict(cert, basis_a=basis)))
        code, out, err = run_cli(capsys, "ffcnm-verify", str(cert_path), state)
        assert (code, out) == (1, "") and err.startswith("input error: "), err
        assert "unitarity" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/state.json")
    assert code == 1
    assert "input error" in err


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1


def test_undecodable_json_is_an_input_error(tmp_path, capsys):
    # a byte that is not UTF-8 fails the decoding, not the JSON grammar; both
    # are the same input error, for a state and for a certificate file
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"m": 2, "n": 2, "data": \xff\xfe}')
    rho, sd = states.random_separable(2, 2, 3, seed=2)
    good_state = write_state(tmp_path, "s.json", rho)
    good_cert = tmp_path / "cert.json"
    cert = sep.decomposition_to_certificate(sd)
    good_cert.write_text(json.dumps(sep.certificate_to_json_dict(cert)))
    for argv in (["analyze", str(bad)], ["gram", str(bad)],
                 ["ffcnm-verify", str(bad), good_state],
                 ["ffcnm-verify", str(good_cert), str(bad)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"input error: {bad} is not valid JSON"), argv


def test_analyze_digest_is_the_sha256_of_the_analyzed_bytes(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", states.random_separable(2, 3, 4, seed=1)[0])
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "separable_certified"
    assert rep["input"] == {"path": path,
                            "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}


def test_invalid_state_exit_code(tmp_path, capsys):
    payload = {"m": 2, "n": 2, "data": densmat.matrix_to_lists(np.eye(4))}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1  # trace is 4, not 1


def test_non_finite_entries_are_input_errors(tmp_path, capsys):
    """A NaN or infinite entry, in either part, exits 1 before any arithmetic
    (the suite turns a RuntimeWarning into an error); before, NaN reached
    eigh and exited 2 as a numerical failure."""
    payload = densmat.state_to_json_dict(states.werner(0.2))
    for part in (0, 1):
        for value in (float("nan"), float("inf"), -float("inf")):
            bad = json.loads(json.dumps(payload))
            bad["data"][1][2][part] = value
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))  # Python's json writes NaN and Infinity
            for command in ("analyze", "gram"):
                code, out, err = run_cli(capsys, command, str(path))
                assert (code, out) == (1, ""), (command, part, value)
                assert "NaN or infinite entry" in err


def test_zero_operator_is_an_input_error(tmp_path, capsys):
    payload = {"m": 2, "n": 3, "unnormalized": True,
               "data": densmat.matrix_to_lists(np.zeros((6, 6)))}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(payload))
    for command in ("analyze", "gram"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert "zero operator" in err


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, "w.json", states.werner(0.2))

    def boom(*args, **kwargs):
        raise cli.NumericalFailure("synthetic")

    monkeypatch.setattr(cli, "analyze_state", boom)
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 2
    assert "numerical failure" in err


def test_negative_seed_and_budget_below_one_are_usage_errors(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", states.werner(0.2))
    for argv in (["analyze", path, "--seed", "-1"],
                 ["analyze", path, "--budget", "0"],
                 ["analyze", path, "--budget", "-3"],
                 ["gen", "random-separable", "--m", "2", "--n", "2", "--k", "2", "--seed", "-1"],
                 ["gen", "random", "--m", "2", "--n", "3", "--r", "4", "--seed", "-1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "analyze", path, "--seed", "0", "--budget", "1")
    assert code == 0
    assert json.loads(out)["solver"]["starts"] == 1


def test_tol_must_be_finite_and_positive(tmp_path, capsys):
    """A NaN tolerance fails every comparison, which made a separable Werner
    state read as NPT; a negative one failed as "not Hermitian".  Both, and
    inf and 0, are usage errors before or after the subcommand."""
    path = write_state(tmp_path, "w.json", states.werner(0.2))
    for tol in ("nan", "inf", "-1", "0"):
        for argv in (["--tol", tol, "analyze", path], ["analyze", path, "--tol", tol]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "must be finite and above 0" in capsys.readouterr().err
    for argv in (("--tol", "1e-7", "analyze", path), ("analyze", path, "--tol", "1e-7")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rep = json.loads(out)
        assert rep["tolerances"]["validation"] == 1e-7
        assert rep["ppt"] and rep["verdict"] == "separable_certified"


def test_gen_random_deterministic(tmp_path, capsys):
    _, out1, _ = run_cli(capsys, "gen", "random", "--m", "2", "--n", "3",
                         "--r", "4", "--seed", "11")
    _, out2, _ = run_cli(capsys, "gen", "random", "--m", "2", "--n", "3",
                         "--r", "4", "--seed", "11")
    assert out1 == out2
    rho = densmat.state_from_json_dict(json.loads(out1))
    assert rho.dim_b == 3


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the completion descents and the continuum witness search are numpy,
    # so neither the import nor a solver analysis loads scipy, which would
    # be most of the start-up time of a one-shot CLI call
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        "import fixtures",
        "from gramsep import cli, states",
        "general = cli.analyze_state(states.random_separable(2, 4, 7, seed=1)[0])",
        "grid = cli.analyze_state(fixtures.separable_56(1, gap=1e-5)[0])",
        "print(general['solver']['method'], grid['solver']['method'])",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines() == ["multistart_lm alpha_beta_grid", "[]"]


def test_cli_import_and_analysis_leave_records_and_generators_unloaded(tmp_path):
    # a one-shot call pays numpy's import and the analysis: no module-level
    # dataclass generation, no OpenSSL until a digest is taken, no numpy.random
    # for the fixed combination weights of a certified state or the fixed PT
    # row weights of a product-vector search (a 2x5 (7,7) fold takes 12 of
    # the 16 stored draws), and neither the product-vector search nor the
    # generators unless the command uses them
    path = write_state(tmp_path, "s.json", states.random_separable(2, 3, 4, seed=1)[0])
    folded = write_state(tmp_path, "f.json", states.random_separable(2, 5, 7, seed=1)[0])
    edge = write_state(tmp_path, "h.json", states.horodecki97(0.3))
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        "import numpy",
        "watched = [m for m in ('dataclasses', 'hashlib', 'numpy.random', 'gramsep.provec',",
        "                       'gramsep.states') if m not in sys.modules]",
        "from gramsep import cli",
        "print(sorted(m for m in watched if m in sys.modules))",
        f"code = cli.main(['analyze', {path!r}, '-o', {str(tmp_path / 'r.json')!r}])",
        "print(code, sorted(m for m in watched if m in sys.modules))",
        f"code = cli.main(['analyze', {folded!r}, '-o', {str(tmp_path / 'f.json')!r}])",
        "print(code, 'numpy.random' in sys.modules)",
        f"code = cli.main(['provec', {edge!r}, '-o', {str(tmp_path / 'p.json')!r}])",
        "print(code, 'numpy.random' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines() == ["[]", "0 ['hashlib']", "0 False", "0 False"]
    assert json.loads((tmp_path / "r.json").read_text())["verdict"] == "separable_certified"
    # a (7,7) state on 2x5: the search folds the PT rows into d = 2 rows
    solver = json.loads((tmp_path / "f.json").read_text())["solver"]
    assert solver["method"] == "product_vector_cone" and solver["hits"] == 7
    assert json.loads((tmp_path / "p.json").read_text())["hits"] == []
