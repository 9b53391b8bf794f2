"""Command-line frontend: analysis pipeline and JSON report emission.

The analyze pipeline runs PPT -> rank-case dispatch -> extension solver ->
certificate extraction, and never overclaims: a state is reported separable
only with a verified certificate attached, and a failed heuristic search
yields ``ppt_undecided`` rather than an entanglement verdict.

The canonical frame [[A, B], [B^dag, I]] is built first only for r = r',
the one rank pattern of the exact rank-N, self-transpose and (N+1, N+1)
paths.  Next, a PPT 2xN state on which the product-vector search of rho
itself can be complete (kernel dims k + k' >= N, 0 < k < N) is decomposed
over its hits (``solver.method`` "product_vector_cone").  A fit over them
certifies a separable state.  Where the search is isolated (no hit can
have been lost to rounding), every term of a product decomposition is a
hit, so no hit, or independent hit projectors that do not fit rho, rule
one out: ``ppt_undecided`` without a solver.

A PPT 2x3 state with k + k' < 3 has product projectors subtracted from rho
down to a remainder of k + k' = 3 or 4, which the same fit decomposes
(``solver.method`` "product_subtraction"); on 2x3 PPT is separability, so
the remainder stays separable.  Otherwise the frame follows for the
solvers; where it finds a deficient B support, the dispatch restarts on the
deflated state.  The descent takes k + k' < N on 2x2 and 2xN with N >= 4,
and the searches that are not isolated and whose hits do not fit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from . import densmat, gram, sep, twoxn
from .densmat import DensityMatrix, InputError


class NumericalFailure(RuntimeError):
    pass


VERDICT_SEPARABLE = "separable_certified"
VERDICT_NPT = "entangled_npt"
VERDICT_RANGE = "entangled_range"
VERDICT_UNDECIDED = "ppt_undecided"


def _schmidt_product_decomposition(rho: DensityMatrix, tol: float):
    """Rank-one states: separable iff the vector has Schmidt rank one."""
    dec = gram.spectral_decomposition(rho)
    vec = dec.terms[0].reshape(rho.dim_a, rho.dim_b)
    u, s, vh = np.linalg.svd(vec)
    if s.size > 1 and s[1] > tol * s[0]:
        return None
    phi = u[:, 0] * s[0]
    psi = vh[0]
    return sep.SeparableDecomposition(rho.dim_a, rho.dim_b,
                                      phi[None, :], psi[None, :])


# a fixed real turn of the A basis, for states whose canonical frame fails
_TURN = np.array([[0.6, -0.8], [0.8, 0.6]])


def _turned(rho: DensityMatrix, u, back, post=lambda sd: sd):
    """(cf, state, post) for rho in the A basis turned by the real orthogonal
    u: ``back`` maps phi' of the turned state to phi = u^T phi', then ``post``
    maps on."""
    big = np.kron(u, np.eye(rho.dim_b))
    state = densmat.validate_density(big @ rho.mat @ big.T, 2, rho.dim_b, tol=rho.tol,
                                     unnormalized=rho.unnormalized)
    return twoxn.canonical_form(state), state, lambda sd: post(sep.SeparableDecomposition(
        2, rho.dim_b, back(sd.phis), sd.psis))


class _Decided(Exception):
    """Ends _decompose with its (sd, rejection) pair, where building the
    canonical frame already settles the state."""


class _Deflated(Exception):
    """Carries (reduced, iso) of deflate_b_support, for a B support of
    dimension below N: _decompose decides rho on it."""


def _canonical_with_fallbacks(rho: DensityMatrix):
    """Canonical form with the A-swap and A-turn fallbacks.

    Returns (cf, state_used, post) where ``post`` maps a decomposition of the
    state actually canonicalized back to one of ``rho``.  Where tr_A rho is
    singular, raises _Decided with rho's decomposition if its rank is one,
    and _Deflated if it is higher.
    """
    try:
        return twoxn.canonical_form(rho), rho, lambda sd: sd
    except twoxn.SingularC:
        pass
    try:
        return _turned(rho, np.array([[0, 1], [1, 0]], dtype=complex), lambda phis: phis[:, ::-1])
    except twoxn.SingularC:
        pass
    reduced, iso = twoxn.deflate_b_support(rho)
    if reduced.dim_b == 1:  # one term per eigenvector of sigma_A, each with psi = f
        phis = twoxn.factor_psd(reduced.mat, rel_tol=densmat.RANK_TOL).T
        raise _Decided(sep.SeparableDecomposition(
            2, rho.dim_b, phis, np.repeat(iso.T, len(phis), axis=0)), None)
    if reduced.dim_b == rho.dim_b:
        # both diagonal blocks singular and tr_A rho of full rank
        return _turned(rho, _TURN, lambda phis: phis @ _TURN)
    raise _Deflated(reduced, iso)


def _frame(rho: DensityMatrix, timings: dict):
    """(cf, used, post, ep): the frame of _canonical_with_fallbacks and its
    completion data; _Decided where no frame exists or it settles rho."""
    t0 = time.perf_counter()
    try:
        cf, used, post = _canonical_with_fallbacks(rho)
        return cf, used, post, twoxn.known_part(cf)
    except twoxn.SingularC:
        raise _Decided(None, (VERDICT_UNDECIDED,
                              "no nonsingular local block to canonicalize against"))
    except twoxn.NotPPT:
        # PPT passed at tolerance but the canonical gap is numerically negative
        raise _Decided(None, (VERDICT_UNDECIDED, "PPT is marginal; canonical gap not factorable"))
    finally:
        timings["canonical"] = timings.get("canonical", 0.0) + time.perf_counter() - t0


def _product_vector_cone(rho: DensityMatrix, ranks):
    """(search, fit) where the product-vector search of rho, of rank pattern
    ``ranks``, can be complete, that is for kernel dims k + k' >= N with
    0 < k < N: search is provec.search_product_vectors's (hits, isolated),
    and fit provec.fit_product_cone's (phis, psis, residual), or None where
    there are no hits or their projectors are dependent.  None for other
    kernel dims and where the search finds a continuum."""
    n = rho.dim_b
    k, kp = (2 * n - rank for rank in ranks)
    if not (k + kp >= n and 0 < k < n):
        return None
    from . import provec  # loaded only by the paths that search or subtract product vectors
    try:
        search = provec.search_product_vectors(rho)
    except provec.DegenerateSystem:
        return None
    try:
        return search, provec.fit_product_cone(rho, search.hits) if search.hits else None
    except provec.DegenerateSystem:
        return search, None


def _product_subtraction(rho: DensityMatrix, ranks, cert_tol: float):
    """(sd, solver) for a PPT 2x3 state of kernel dims k + k' < 3 (from its
    ``ranks``): product projectors subtracted by
    provec.subtract_product_projectors, the remainder (k + k' = 3 or 4, where
    the search is complete) fitted by _product_vector_cone, and sd, the
    subtracted terms followed by the fitted ones, within ``cert_tol`` of rho.
    None elsewhere, and where the subtraction or the fit fails."""
    if rho.dim_b != 3 or sum(ranks) <= 9:  # k + k' = 12 - r - r'
        return None
    from . import provec  # loaded only by the paths that search or subtract product vectors
    try:
        remainder, phis, psis = provec.subtract_product_projectors(rho)
        rem_ranks = densmat.rank_pattern(remainder)
        found = _product_vector_cone(remainder, rem_ranks)
    except (InputError, provec.DegenerateSystem, np.linalg.LinAlgError):
        return None
    if found is None or found[1] is None:
        return None
    (hits, _), (fit_phis, fit_psis, fit_residual) = found
    sd = sep.SeparableDecomposition(2, 3, np.vstack([phis, fit_phis]), np.vstack([psis, fit_psis]))
    if sd.residual(rho) > cert_tol:
        return None
    return sd, {"method": "product_subtraction", "subtractions": len(phis),
                "remainder": {"case": "({},{})".format(*rem_ranks), "method": "product_vector_cone",
                              "hits": len(hits), "fit_residual": fit_residual}}


def _decompose(rho: DensityMatrix, ranks, report: dict, timings: dict, cert_tol: float,
               budget: int = 12, seed: int = 0):
    """The dispatch of a PPT 2xN state of rank > 1 on its rank pattern
    ``ranks``: (sd, None) with a product decomposition of rho still to be
    certified, or (None, (verdict, note)).  Writes ``report["solver"]``, the
    family residuals and the canonical and extraction times."""
    sol = rejection = None  # rejection: (verdict, note) reported when the solver accepts nothing
    search = None  # ((hits, isolated), fit) of _product_vector_cone, where it ran
    try:
        frame = None
        if ranks[0] == ranks[1]:  # the one pattern of the exact branches, which need the frame
            cf, used, post, ep = frame = _frame(rho, timings)
            if ep.q == 0:
                sol = twoxn.rank_n_test(cf)
                rejection = (VERDICT_UNDECIDED, f"rank-N commutator residual "
                                                f"{sol.normality_residual:.3e} above tolerance")
            elif cf.p == cf.p_tilde:
                with contextlib.suppress(twoxn.NotSelfPT):  # its guard: B Hermitian
                    sol = twoxn.self_pt_extension(cf)
            if sol is None and (ep.p, ep.p_tilde) == (1, 1):
                sol = twoxn.solve_extension_55(ep, accept_tol=cert_tol)
                if sol.mixing.get("at_infinity"):  # in the turned A basis s is finite
                    try:
                        turned = _turned(used, _TURN, lambda phis: phis @ _TURN, post)
                        sol = twoxn.solve_extension_55(twoxn.known_part(turned[0]),
                                                       accept_tol=cert_tol)
                        cf, used, post = turned
                    except InputError:
                        pass
                if sol.mixing.get("at_infinity"):
                    rejection = (VERDICT_UNDECIDED, "a scalar completion lies at s = infinity in "
                                                    "both the canonical and the turned A basis")
                elif cf.n == 4:
                    rejection = (VERDICT_RANGE, "no scalar normal completion exists; equivalent "
                                                "to the range criterion for the (5,5) pattern")
                else:
                    rejection = (VERDICT_UNDECIDED, "no scalar normal completion exists, so no "
                                                    "(N+1)-term product decomposition; longer "
                                                    "ones are not excluded")
        if sol is None:
            search = _product_vector_cone(rho, ranks)
            if search is not None:
                (hits, isolated), fit = search
                report["solver"] = {"method": "product_vector_cone", "hits": len(hits)}
                if fit is not None:
                    report["solver"]["fit_residual"] = fit[2]
                    if fit[2] <= cert_tol:
                        return sep.SeparableDecomposition(2, rho.dim_b, *fit[:2]), None
                # an isolated search lost no hit, so every term of a product
                # decomposition is a hit: with none, or with independent hit
                # projectors that do not fit rho, there is no decomposition to find
                if isolated and not hits:
                    return None, (VERDICT_UNDECIDED,
                                  "the complete product-vector search finds no product vector "
                                  "in the range with its partner in the PT range; "
                                  "entangled_range is not reported on this path")
                if isolated and fit is not None:
                    return None, (VERDICT_UNDECIDED,
                                  f"the complete, isolated product-vector search finds "
                                  f"{len(hits)} product vectors, whose independent projectors "
                                  f"fit rho only to {fit[2]:.3e}; no other product vector can "
                                  "enter a decomposition, so no solver runs; entangled_range "
                                  "is not reported on this path")
            # on 2x3 PPT is separability: subtract product projectors down to a
            # complete pattern, and descend only where that fails
            found = _product_subtraction(rho, ranks, cert_tol)
            if found is not None:
                report["solver"] = found[1]
                return found[0], None
            cf, used, post, ep = frame or _frame(rho, timings)
            if cf.n == 4 and (ep.p, ep.p_tilde) == (1, 2):
                sol = twoxn.solve_extension_56(ep)
                rejection = (VERDICT_UNDECIDED,
                             "no completion found on the search grid; existence not excluded")
            else:
                sol = twoxn.solve_extension_general(ep, budget=budget, seed=seed)
                rejection = (VERDICT_UNDECIDED,
                             f"best completion residual {sol.normality_residual:.3e}")
    except _Decided as done:
        return done.args
    except _Deflated as deflated:  # decide rho on its B support, then lift psi = iso psi'
        reduced, iso = deflated.args
        sd, rejection = _decompose(reduced, ranks, report, timings, cert_tol, budget, seed)
        return sd and sep.SeparableDecomposition(2, rho.dim_b, sd.phis, sd.psis @ iso.T), rejection
    report["solver"] = _solver_dict(sol)
    if search is not None:
        report["solver"]["hits"] = len(search[0].hits)
    if rejection is not None and not sol.accepted:
        return None, rejection

    t0 = time.perf_counter()
    try:
        sd_used, fam_report = twoxn.extension_to_decomposition(cf, sol, used, tol=1e-6)
    except (sep.CertificateInvalid, sep.JointDiagonalizationFailed) as exc:
        timings["extract"] = time.perf_counter() - t0
        return None, (VERDICT_UNDECIDED, f"extraction failed: {exc}")
    sd = post(sd_used)
    timings["extract"] = time.perf_counter() - t0
    report["residuals"]["family_normality"] = fam_report.normality
    report["residuals"]["family_relation"] = fam_report.relation
    return sd, None


def analyze_state(rho: DensityMatrix, tol: float = densmat.DEFAULT_TOL,
                  budget: int = 12, seed: int = 0,
                  cert_tol: float = 1e-8, with_timings: bool = False) -> dict:
    """Full separability analysis of a bipartite state; returns the report dict.

    The PPT test, then on 2xN the rank-pattern dispatch of _decompose
    (exact paths, the product-vector fit, on 2x3 the product subtraction,
    then the (5,6) grid or the descent), then one certificate of its
    decomposition, re-verified against rho at ``cert_tol``.  ``budget`` and
    ``seed`` are the starts and the seed of the multi-start descent."""
    timings = {}
    report = {
        "m": rho.dim_a,
        "n": rho.dim_b,
        "tolerances": {"validation": tol, "certificate": cert_tol},
        "solver": None,
        "certificate": None,
        "terms": None,
        "residuals": {},
    }

    t0 = time.perf_counter()
    r, rt = densmat.rank_pattern(rho)
    ppt, min_eig = densmat.is_ppt(rho, tol)
    timings["spectral"] = time.perf_counter() - t0
    report["rank"] = r
    report["rank_pt"] = rt
    report["case"] = f"({r},{rt})"
    report["ppt"] = bool(ppt)
    report["ppt_min_eigenvalue"] = float(min_eig)

    def finish(verdict, note=None):
        report["verdict"] = verdict
        if note:
            report["note"] = note
        if with_timings:
            report["timings"] = timings
        return report

    if not ppt:
        return finish(VERDICT_NPT)

    if rho.dim_a > 2:
        return finish(VERDICT_UNDECIDED,
                      "decision procedures cover 2xN states; use ffcnm-verify "
                      "to check a candidate certificate")

    if r == 1:
        sd = _schmidt_product_decomposition(rho, tol)
        rejection = (VERDICT_UNDECIDED, "rank-one state with Schmidt rank > 1 slipped the PPT gate")
    else:
        t0 = time.perf_counter()
        sd, rejection = _decompose(rho, (r, rt), report, timings, cert_tol, budget, seed)
        timings["solver"] = (time.perf_counter() - t0 - timings.get("canonical", 0.0)
                             - timings.get("extract", 0.0))
    if sd is None:
        return finish(*rejection)

    t0 = time.perf_counter()
    cert = sep.decomposition_to_certificate(sd)
    check = sep.verify_certificate(cert, rho, tol=cert_tol)
    timings["verify"] = time.perf_counter() - t0
    if not check.passed:
        return finish(VERDICT_UNDECIDED,
                      f"certificate verification failed at {check.max_deviation:.3e}")
    report["certificate"] = sep.certificate_to_json_dict(cert)
    report["residuals"]["certificate"] = check.max_deviation
    report["terms"] = sd.k
    return finish(VERDICT_SEPARABLE)


def _solver_dict(sol: twoxn.ExtensionSolution) -> dict:
    out = {
        "method": sol.method,
        "normality_residual": float(sol.normality_residual),
        "equation_residual": float(sol.equation_residual),
        "accepted": bool(sol.accepted),
    }
    for key, val in sol.mixing.items():
        if isinstance(val, (complex, np.complexfloating)):
            out[key] = densmat.complex_to_pair(val)
        elif isinstance(val, (int, float, np.integer, np.floating)):
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# argument parsing and subcommands

def _read_json(path: str):
    """(parsed JSON, the bytes it was parsed from) of a file; InputError when
    the file cannot be read or its bytes are not JSON text."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_state(path: str, tol: float) -> DensityMatrix:
    return densmat.state_from_json_dict(_read_json(path)[0], tol=tol)


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=float)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _digest(raw: bytes) -> str:
    import hashlib  # loads OpenSSL, which no other command needs
    return hashlib.sha256(raw).hexdigest()


def cmd_analyze(args) -> int:
    tol = args.tol / 2 if args.strict else args.tol
    cert_tol = 5e-9 if args.strict else 1e-8
    payload, raw = _read_json(args.state)
    rho = densmat.state_from_json_dict(payload, tol=tol)
    report = analyze_state(rho, tol=tol, budget=args.budget, seed=args.seed,
                           cert_tol=cert_tol, with_timings=args.timings)
    report["input"] = {"path": args.state, "sha256": _digest(raw)}
    _emit(report, args.output)
    return 0


def cmd_gram(args) -> int:
    rho = _load_state(args.state, args.tol)
    g = gram.spectral_gram(rho)
    _emit(gram.gram_to_json_dict(g), args.output)
    return 0


def cmd_canonical(args) -> int:
    rho = _load_state(args.state, args.tol)
    cf = twoxn.canonical_form(rho)
    payload = {
        "n": cf.n,
        "a": densmat.matrix_to_lists(cf.a),
        "b": densmat.matrix_to_lists(cf.b),
        "lam": densmat.matrix_to_lists(cf.lam),
        "lam_tilde": None if cf.lam_tilde is None else densmat.matrix_to_lists(cf.lam_tilde),
        "p": cf.p,
        "p_tilde": cf.p_tilde,
        "ppt": cf.ppt,
    }
    _emit(payload, args.output)
    return 0


def cmd_provec(args) -> int:
    from . import provec  # only this command searches product vectors
    rho = _load_state(args.state, args.tol)
    r, rt = densmat.rank_pattern(rho)
    case = f"({r},{rt})"
    try:
        hits = provec.find_product_vectors(rho)
    except provec.DegenerateSystem as exc:
        payload = provec.hits_to_json_dict([], case)
        payload["degenerate"] = "continuum" if exc.continuum else "singular"
        _emit(payload, args.output)
        return 0
    except provec.UnsupportedRankPattern as exc:
        payload = provec.hits_to_json_dict([], case)
        payload["unsupported"] = str(exc)
        _emit(payload, args.output)
        return 0
    _emit(provec.hits_to_json_dict(hits, case), args.output)
    return 0


def cmd_ffcnm_verify(args) -> int:
    cert = sep.certificate_from_json_dict(_read_json(args.certificate)[0])
    rho = _load_state(args.state, args.tol)
    check = sep.verify_certificate(cert, rho, tol=args.tol * 10)
    fam = sep.build_ffcnm(cert)  # its diagnostics hold the normality and commutation residuals
    fam_report = sep.FfcnmReport(fam.diagnostics["normality"], fam.diagnostics["commutation"],
                                 sep.relation_residual(fam, cert.gram_system()), args.tol * 10)
    payload = {
        "certificate": {"max_deviation": check.max_deviation, "passed": check.passed},
        "family": {
            "normality": fam_report.normality,
            "commutation": fam_report.commutation,
            "relation": fam_report.relation,
            "passed": fam_report.passed,
        },
        "passed": check.passed and fam_report.passed,
    }
    _emit(payload, args.output)
    return 0


def cmd_gen(args) -> int:
    from . import states  # only this command generates states
    if args.kind == "werner":
        rho = states.werner(args.p)
    elif args.kind == "horodecki":
        rho = states.horodecki97(args.b)
    elif args.kind == "random-separable":
        rho, _ = states.random_separable(args.m, args.n, args.k, args.seed)
    elif args.kind == "random":
        rho = states.random_density(args.m, args.n, args.r, args.seed)
    else:
        raise InputError(f"unknown generator {args.kind!r}")
    _emit(densmat.state_to_json_dict(rho), args.output)
    return 0


def _int_at_least(low: int):
    """argparse type for an integer flag that must be at least ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _tolerance(text: str) -> float:
    """argparse type for ``--tol``: a finite number above 0."""
    value = float(text)
    if not 0 < value < np.inf:  # NaN fails every comparison, so it fails here too
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramsep",
        description="Separability analysis of bipartite density matrices via "
                    "Gram decompositions and normal-matrix completions.")
    parser.add_argument("--tol", type=_tolerance, default=densmat.DEFAULT_TOL,
                        help="validation tolerance (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")
        # no default here: a subcommand default would override a --tol given
        # before the subcommand, so the top-level default is the only one
        p.add_argument("--tol", type=_tolerance, default=argparse.SUPPRESS,
                       help="validation tolerance (default 1e-9)")

    p = sub.add_parser("analyze", help="full separability pipeline")
    p.add_argument("state", help="state JSON file")
    common(p)
    p.add_argument("--budget", type=_int_at_least(1), default=12,
                   help="starts of the multi-start descent, run where no exact path, "
                        "product-vector fit or product subtraction decides: kernel dims "
                        "k + k' < N, or a search that is not isolated (default 12)")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--strict", action="store_true", help="halve all tolerances")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-identical output)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gram", help="spectral Gram system of a state")
    p.add_argument("state")
    common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("canonical", help="canonical 2xN form and factors")
    p.add_argument("state")
    common(p)
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("provec", help="product vectors in range and PT range")
    p.add_argument("state")
    common(p)
    p.set_defaults(func=cmd_provec)

    p = sub.add_parser("ffcnm-verify", help="verify a certificate and its matrix family")
    p.add_argument("certificate")
    p.add_argument("state")
    common(p)
    p.set_defaults(func=cmd_ffcnm_verify)

    p = sub.add_parser("gen", help="generate named or random states")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("werner")
    g.add_argument("--p", type=float, required=True)
    common(g)
    g.set_defaults(func=cmd_gen)
    g = gsub.add_parser("horodecki")
    g.add_argument("--b", type=float, required=True)
    common(g)
    g.set_defaults(func=cmd_gen)
    g = gsub.add_parser("random-separable")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=_int_at_least(0), required=True)
    common(g)
    g.set_defaults(func=cmd_gen)
    g = gsub.add_parser("random")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--seed", type=_int_at_least(0), required=True)
    common(g)
    g.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, sep.JointDiagonalizationFailed, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
