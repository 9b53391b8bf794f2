"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from gramsep import cli, densmat, gram, provec, sep, states, twoxn

import fixtures


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_werner_boundary():
    """Separability boundary of the two-qubit family at p = 1/3."""
    worst_res, worst_terms, worst_time = 0.0, 0, 0.0
    for p in (0.0, 0.1, 0.2, 0.3, 1 / 3):
        t0 = time.perf_counter()
        rep = cli.analyze_state(states.werner(p))
        dt = time.perf_counter() - t0
        assert rep["verdict"] == "separable_certified", (p, rep["verdict"])
        worst_res = max(worst_res, rep["residuals"]["certificate"])
        worst_terms = max(worst_terms, rep["terms"])
        worst_time = max(worst_time, dt)
    for p in (0.34, 0.5, 1.0):
        t0 = time.perf_counter()
        rep = cli.analyze_state(states.werner(p))
        dt = time.perf_counter() - t0
        assert rep["verdict"] == "entangled_npt", (p, rep["verdict"])
        assert abs(rep["ppt_min_eigenvalue"] - (1 - 3 * p) / 4) <= 1e-10
        worst_time = max(worst_time, dt)
    ok = worst_res <= 1e-8 and worst_terms <= 4 and worst_time < 1.0
    report("1 werner-boundary", ok,
           f"max residual {worst_res:.2e}, max terms {worst_terms}, "
           f"max time {worst_time * 1000:.0f}ms")


def test_criterion_2_tabulated_certificate_and_connection():
    """The tabulated p=0.2 certificate data and connection matrix."""
    p = 0.2
    rho = states.werner(p)
    cert = fixtures.werner_certificate(p)
    dev = sep.verify_certificate(cert, rho).max_deviation

    printed = gram.gram_from_decomposition(
        gram.Decomposition(2, 2, fixtures.werner_spectral_terms(p)), rho)
    base = [printed.vector(0, 0), printed.vector(0, 1)]
    f_maps = [np.eye(4, dtype=complex), fixtures.werner_factor_f2(p)]
    v = fixtures.werner_connection_matrix(p)
    relation = 0.0
    for m in range(2):
        middle = v.conj().T @ np.diag(cert.diagonals[m]) @ v
        for x in base:
            relation = max(relation, float(np.linalg.norm((middle - f_maps[m]) @ x)))
    ok = dev <= 1e-10 and relation <= 1e-8
    report("2 tabulated-certificate", ok,
           f"certificate dev {dev:.2e}, connection relation {relation:.2e}")


def test_criterion_3_horodecki_family():
    """Rank-(5,5) edge family: no scalar completion except at b = 1."""
    worst_time = 0.0
    for b in (0.1, 0.3, 0.5, 0.7, 0.9):
        t0 = time.perf_counter()
        rho = states.horodecki97(b)
        assert densmat.is_ppt(rho)[0], b
        assert densmat.rank_pattern(rho) == (5, 5), b
        assert provec.edge_state_test(rho).verdict == "edge", b
        sol = twoxn.solve_extension_55(twoxn.known_part(twoxn.canonical_form(rho)))
        assert not sol.accepted, b
        assert sol.equation_residual > 1e-3, (b, sol.equation_residual)
        worst_time = max(worst_time, time.perf_counter() - t0)
    t0 = time.perf_counter()
    sol = twoxn.solve_extension_55(
        twoxn.known_part(twoxn.canonical_form(states.horodecki97(1.0))))
    worst_time = max(worst_time, time.perf_counter() - t0)
    ok = sol.accepted and abs(sol.mixing["s"]) <= 1e-10 \
        and sol.equation_residual <= 1e-10 and worst_time < 1.0
    report("3 horodecki-family", ok,
           f"b=1 gives s={abs(sol.mixing['s']):.1e}, max time {worst_time * 1000:.0f}ms")


def test_criterion_4_matrix_family_round_trip():
    """200 seeded separable states through build -> extract -> rebuild."""
    configs = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]
    t0 = time.perf_counter()
    worst_build, worst_rebuild = 0.0, 0.0
    count = 0
    seed = 0
    rng = np.random.default_rng(2024)
    while count < 200:
        m, n = configs[count % len(configs)]
        k = 12 if m * n >= 12 else int(rng.integers(m * n, 13))
        rho, sd = states.random_separable(m, n, k, seed=seed)
        seed += 1
        cert = sep.decomposition_to_certificate(sd)
        u = states.random_unitary(cert.k, rng)
        fam = sep.build_ffcnm(cert, u)
        worst_build = max(worst_build, fam.diagnostics["normality"],
                          fam.diagnostics["commutation"])
        g = gram.embed_gram(cert.gram_system(), u)
        cert2 = sep.extract_certificate(fam, g)
        sd2 = sep.certificate_to_decomposition(cert2)
        worst_rebuild = max(worst_rebuild, sd2.residual(rho))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_build <= 1e-10 and worst_rebuild <= 1e-8 and elapsed < 30.0
    report("4 family-round-trip", ok,
           f"build residual {worst_build:.2e}, rebuild {worst_rebuild:.2e}, "
           f"{elapsed:.1f}s for 200 states")


def _rank_n_separable(n, seed):
    rng = np.random.default_rng(seed)
    phis = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    psis = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    sd = sep.SeparableDecomposition(2, n, phis, psis)
    tr = np.trace(sd.density()).real
    sd = sep.SeparableDecomposition(2, n, phis / np.sqrt(tr), psis)
    return densmat.validate_density(sd.density(), 2, n)


def test_criterion_5_rank_n_commutator():
    """Rank-N states: the commutator test separates separable from NPT."""
    worst = 0.0
    for i in range(100):
        n = (3, 4, 5)[i % 3]
        rho = _rank_n_separable(n, seed=1000 + i)
        sol = twoxn.rank_n_test(twoxn.canonical_form(rho))
        worst = max(worst, sol.normality_residual)
        assert sol.accepted, (i, sol.normality_residual)
    npt_residuals = []
    seed = 0
    while len(npt_residuals) < 100:
        rho = states.random_density(2, 4, 8, seed=5000 + seed)
        seed += 1
        if densmat.is_ppt(rho)[0]:
            continue
        cf = twoxn.canonical_form(rho)
        npt_residuals.append(sep.normality_residual(cf.b))
    median = float(np.median(npt_residuals))
    ok = worst <= 1e-9 and median > 1e-2
    report("5 rank-n-commutator", ok,
           f"separable max {worst:.2e}, NPT median {median:.2e}")


def test_criterion_6_55_completeness():
    """Five generators of a (5,5) state are found, and the scalar completion
    solver certifies every one of them."""
    count, seed = 0, 0
    worst_match = 0.0
    while count < 100:
        rho, sd = states.random_separable(2, 4, 5, seed=seed)
        seed += 1
        if densmat.rank_pattern(rho) != (5, 5):
            continue
        hits = provec.find_product_vectors(rho)
        assert len(hits) == 5, (seed - 1, len(hits))
        for k in range(5):
            gen = np.kron(sd.phis[k], sd.psis[k])
            gen = gen / np.linalg.norm(gen)
            best = max(abs(np.vdot(h.product_vector(), gen)) for h in hits)
            worst_match = max(worst_match, 1 - best)
        sol = twoxn.solve_extension_55(twoxn.known_part(twoxn.canonical_form(rho)),
                                       accept_tol=1e-8)
        assert sol.accepted, seed - 1
        count += 1
    ok = worst_match <= 1e-6
    report("6 (5,5)-completeness", ok,
           f"100 states, worst generator mismatch {worst_match:.2e}")


def test_criterion_7_57_existence():
    """Every sampled rank-(5,7) state yields at least one verified root and
    at most ten candidates."""
    count, seed = 0, 0
    min_roots, max_roots = 99, 0
    while count < 50:
        out = fixtures.rank57_state(seed)
        seed += 1
        assert seed < 400, "sampler failed to hit the rank pattern"
        if out is None:
            continue
        dm, _ = out
        hits = provec.determinant_equation_57(dm)
        assert 1 <= len(hits) <= 10, (seed - 1, len(hits))
        min_roots = min(min_roots, len(hits))
        max_roots = max(max_roots, len(hits))
        count += 1
    report("7 (5,7)-existence", True,
           f"50 states, root counts in [{min_roots}, {max_roots}]")


def test_criterion_8_two_qubit_oracle_agreement():
    """The pipeline never contradicts the exact two-qubit oracle."""
    rng = np.random.default_rng(77)
    contradictions = 0
    undecided = 0
    certified = 0
    for i in range(500):
        kind = i % 5
        if kind < 4:
            rho, _ = states.random_separable(2, 2, kind + 1, seed=9000 + i)
            if kind >= 2:  # mix toward the interior now and then
                mat = 0.8 * rho.mat + 0.2 * np.eye(4) / 4
                rho = densmat.validate_density(mat, 2, 2)
        else:
            rho = states.random_density(2, 2, int(rng.integers(1, 5)), seed=9000 + i)
        oracle = states.brute_force_separability(rho)
        rep = cli.analyze_state(rho, budget=8, seed=1)
        verdict = rep["verdict"]
        if verdict == "separable_certified":
            certified += 1
            if not oracle:
                contradictions += 1
        elif verdict == "entangled_npt":
            if oracle:
                contradictions += 1
        elif verdict == "ppt_undecided":
            undecided += 1
        else:
            contradictions += 1  # entangled_range impossible on 2x2
    ok = contradictions == 0
    report("8 two-qubit-oracle", ok,
           f"500 states, {certified} certified, {undecided} undecided, "
           f"{contradictions} contradictions")
