"""The three workloads: which inputs each round holds, and why.

A round is a fixed list of operations built from the run seed; a run
repeats its round until the measuring time is used up, so every run
attempts whole rounds of the same operations.  Each state gets its own
generator, seeded with (run seed, family tag, index), so the families are
independent streams.

Operations:

``analyze``  ``densmat.validate_density`` then ``cli.analyze_state``, checked
             by :func:`checks.check_verdict`
``provec``   one of ``provec.find_product_vectors``, ``edge_state_test``,
             ``determinant_equation_57`` on a validated state
``cli``      ``python -m gramsep.cli analyze FILE`` in a fresh interpreter

Every workload also holds a few *coverage* operations, so that it reaches
every layer function the traced run reports.  They are checked and counted
in ``attempted``/``failed`` like the others, but the end-to-end figures
leave them out: those describe the workload's own mix.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

import inputs
from inputs import Case


@dataclass
class Op:
    kind: str          # "analyze" | "provec" | "cli"
    case: Case
    fn: str = ""       # provec function name for kind == "provec"
    coverage: bool = False


# CLI processes per round in the one-round workloads.  Scaled by the
# reference interpreters around them (speed.py), the median of four moves
# by a few percent between runs.
CLI_PER_ROUND = 4


def _rng(seed: int, family: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(family.encode()), index])


def _mixture(seed, n, k, index, expect="separable", real_a=False, tag="mix"):
    family = f"{tag}-2x{n}-k{k}"
    mat, planted = inputs.product_mixture(_rng(seed, family, index), 2, n, k, real_a=real_a)
    return Case(f"{family}#{index}", 2, n, mat, expect,
                {"generators": (planted["phis"], planted["psis"])})


def _ball(seed, m, n, index):
    family = f"ball-{m}x{n}"
    rng = _rng(seed, family, index)
    mat = inputs.separable_ball(rng, m, n, rng.uniform(0.5, 0.95))
    return Case(f"{family}#{index}", m, n, mat, "separable")


def _horodecki(seed, index, b=None):
    rng = _rng(seed, "horodecki", index)
    if b is None:
        b = float(rng.uniform(0.05, 0.95))
    mat = inputs.local_rotate(rng, inputs.horodecki(b), 2, 4)
    expect = "separable_exact" if b == 1.0 else "range"
    family = "horodecki-b1" if b == 1.0 else "horodecki"
    return Case(f"{family}#{index}", 2, 4, mat, expect, {"edge": b < 1.0, "b": b})


def _separable_56(seed, index):
    mat = inputs.separable_56(_rng(seed, "sep56", index))
    return Case(f"sep56#{index}", 2, 4, mat, "separable", {"edge": False})


def _edge_56(seed, index):
    mat = inputs.first_hit(lambda r: inputs.alternating_projections(r, 5, 6, 600),
                           _rng(seed, "edge56", index))
    return Case(f"edge56#{index}", 2, 4, mat, "ppt_unknown")


def _range_mixture(seed, index):
    rng = _rng(seed, "range-mix", index)
    mat = inputs.horodecki_range_mixture(rng, float(rng.uniform(0.2, 0.9)))
    return Case(f"range-mix#{index}", 2, 4, mat, "ppt_not_edge", {"edge": False})


def _ppt_66(seed, index):
    mat = inputs.first_hit(lambda r: inputs.alternating_projections(r, 6, 6, 400),
                           _rng(seed, "ppt66", index))
    return Case(f"ppt66#{index}", 2, 4, mat, "ppt_unknown")


def _npt_57(seed, index):
    mat = inputs.first_hit(inputs.npt_57, _rng(seed, "npt57", index))
    return Case(f"npt57#{index}", 2, 4, mat, "npt")


def _npt_full(seed, m, n, index):
    family = f"npt-{m}x{n}"
    mat = inputs.npt_full_rank(_rng(seed, family, index), m, n)
    return Case(f"{family}#{index}", m, n, mat, "npt")


def _random_small(seed, n, index, ppt):
    """Random 2x2 or 2x3 state on the PPT or the NPT side (drawn until it
    lands there), so each round has a fixed share of each."""
    family = f"random-2x{n}-{'ppt' if ppt else 'npt'}"
    rng = _rng(seed, family, index)
    while True:
        mat = inputs.wishart(rng, 2 * n, int(rng.integers(2, 2 * n + 1)))
        own = inputs.pt_min_eigenvalue(mat, 2, n)
        if abs(own) > 1e-3 and (own > 0) == ppt:
            return Case(f"{family}#{index}", 2, n, mat, "pt_oracle")


def _werner(seed, index, count):
    """Stratified on the Werner line: the i-th of ``count`` points lies in
    [i/count, (i+1)/count), away from the boundary p = 1/3."""
    p = (index + float(_rng(seed, "werner", index).uniform(0.05, 0.95))) / count
    family = "werner-ppt" if p < 1 / 3 else "werner-npt"
    return Case(f"{family}#{index}", 2, 2, inputs.werner(p), "pt_oracle", {"p": p})


def _pure(seed, n, index, product):
    rng = _rng(seed, f"pure-2x{n}", index)
    if product:
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec, expect = np.kron(a, b), "separable_exact"
    else:
        vec, expect = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n), "npt"
    return Case(f"pure-{'product' if product else 'entangled'}-2x{n}#{index}",
                2, n, inputs.pure_state(vec), expect)


def _coverage_analyze(seed) -> tuple[list[Op], list[Op]]:
    """Analyses that reach the layers a workload would otherwise leave
    idle, one state each, as (slow, cheap): the (5,6) grid, and the
    rank-N test, self-transpose, (5,5) and range paths."""
    slow = [Op("analyze", _separable_56(seed, 900), coverage=True)]
    cheap = [Op("analyze", c, coverage=True) for c in (
        _mixture(seed, 4, 4, 900, "separable_exact", tag="cover"),
        _mixture(seed, 4, 6, 900, "separable_exact", real_a=True, tag="cover-real"),
        _mixture(seed, 4, 5, 900, "separable_exact", tag="cover"),
        _horodecki(seed, 900),
    )]
    return slow, cheap


def _coverage_provec(seed) -> tuple[list[Op], list[Op]]:
    """Product-vector calls of each kind, as (slow, cheap)."""
    c55 = _mixture(seed, 4, 5, 901, "separable_exact", tag="cover")
    c56 = _separable_56(seed, 901)
    slow = [Op("provec", _npt_57(seed, 900 + i), "determinant_equation_57", coverage=True)
            for i in range(2)]
    cheap = [Op("provec", c55, "find_product_vectors", coverage=True),
             Op("provec", c56, "edge_state_test", coverage=True)]
    return slow, cheap


def _round(seed: int, once: list[Op], repeated: list[Op], reps: int) -> list[Op]:
    """The round in a seeded order, with every operation of ``repeated``
    ``reps`` times.  Shuffling spreads each family over the round, and the
    repeats give the cheap operations several timings each, so a burst of
    load from the rest of the host moves single samples, not whole
    families."""
    ops = once + reps * repeated
    order = np.random.default_rng([seed, zlib.crc32(b"order")]).permutation(len(ops))
    return [ops[i] for i in order]


def certify_2xn(seed: int) -> list[Op]:
    # Product mixtures of 2x4 with k >= 7 and 2x5 with k >= 8 terms, and
    # full-rank ball states beyond 2x3, are left out: their analysis time
    # is heavy-tailed (single states above 40 s), which no fixed run length
    # can hold steadily.  See README.md.
    solver = []
    for n, ks in ((3, range(4, 9)), (4, (6,)), (5, (6, 7))):
        for k in ks:
            solver += [_mixture(seed, n, k, i) for i in range(10)]
    solver += [_ball(seed, 2, 3, i) for i in range(12)]
    # States the program decides exactly (rank N, the (5,5) pattern, real
    # A-side vectors) are cheap.  There are enough of them that the median
    # state is one of them and the 90th percentile falls mid-way through
    # the costlier solver states, not at the edge of a cluster.
    exact = []
    for n in (3, 4, 5):
        exact += [_mixture(seed, n, n, i, "separable_exact") for i in range(30)]
        exact += [_mixture(seed, n, n + 2, i, "separable_exact", real_a=True, tag="real")
                  for i in range(30)]
    exact += [_mixture(seed, 4, 5, i, "separable_exact") for i in range(30)]
    # The (N+1)-term mixtures: find their planted product vectors.
    rank_n1 = [c for c in solver + exact if c.family in ("mix-2x3-k4", "mix-2x5-k6", "mix-2x4-k5")]
    slow, cheap = _coverage_analyze(seed)
    slow_pv, cheap_pv = _coverage_provec(seed)
    once = ([Op("analyze", c) for c in solver] + slow + slow_pv
            + [Op("cli", _mixture(seed, 3, 4, 100 + i)) for i in range(CLI_PER_ROUND)])
    repeated = ([Op("analyze", c) for c in exact] + cheap + cheap_pv
                + [Op("provec", c, "find_product_vectors") for c in rank_n1])
    return _round(seed, once, repeated, reps=2)


def ppt_2x4(seed: int) -> list[Op]:
    # Analysis time is set by the (6,6) states, whose family median moves
    # by +-20% from seed to seed (the per-state cost runs from 1.2 to 6.9 s);
    # more of them would not steady the rate, since they would also weigh
    # more in it.  So the (5,6) states, whose median moves by +-10%, are
    # many enough to make the (6,6) states about 40% of the time.  Most of
    # them are edge states and mixtures, which end ppt_undecided on every
    # seed; the (5,6) grid leaves 0-4 of 16 separable (5,6) states
    # undecided, so more of those would unsteady `certified`.
    ppt66 = [_ppt_66(seed, i) for i in range(5)]
    sep56 = [_separable_56(seed, i) for i in range(8)]
    edge = [_edge_56(seed, i) for i in range(24)]
    rmix = [_range_mixture(seed, i) for i in range(12)]
    # As many cheap Horodecki states as costly ones, so the median state is
    # the middle of the exact (5,5) states, and the 90th percentile falls
    # among the (5,6) states.
    hor = [_horodecki(seed, i) for i in range(47)] + [_horodecki(seed, 47, b=1.0)]
    sep55 = [_mixture(seed, 4, 5, i, "separable_exact") for i in range(40)]
    # determinant_equation_57 is nearly all of the product-vector time and
    # its cost varies by 2x between states; sixteen of them keep the family
    # median within a few percent from seed to seed.
    npt57 = [_npt_57(seed, i) for i in range(16)]
    slow, cheap = _coverage_analyze(seed)
    once = ([Op("analyze", c) for c in sep56 + edge + rmix + ppt66] + slow
            + [Op("provec", c, "determinant_equation_57") for c in npt57]
            + [Op("cli", c) for c in hor[:CLI_PER_ROUND]])
    repeated = ([Op("analyze", c) for c in hor + sep55] + cheap
                + [Op("provec", c, "find_product_vectors") for c in sep55[:8]]
                + [Op("provec", c, "edge_state_test") for c in edge + sep56 + rmix + hor[:8]])
    return _round(seed, once, repeated, reps=3)


def screen(seed: int) -> list[Op]:
    # Most states are NPT, so the median state is on the spectral-only
    # path; the PPT 2x2 states, which reach the general solver, are few,
    # so the 90th percentile lies mid-way through the certified short paths.
    cases = [_werner(seed, i, 12) for i in range(12)]
    cases += [_random_small(seed, 2, i, ppt=i < 5) for i in range(60)]
    cases += [_random_small(seed, 3, i, ppt=False) for i in range(20)]
    for m, n in ((2, 4), (2, 5), (2, 6), (3, 3)):
        cases += [_npt_full(seed, m, n, i) for i in range(66)]
    for n in (2, 3, 4, 5, 6):
        cases += [_mixture(seed, n, n, i, "separable_exact", tag="rankn") for i in range(6)]
        cases += [_mixture(seed, n, n + 2, i, "separable_exact", real_a=True, tag="selfpt")
                  for i in range(4)]
        cases += [_pure(seed, n, i, product=True) for i in range(3)]
        cases += [_pure(seed, n, i, product=False) for i in range(3)]
    # Product vectors of (N+1)-term separable states: a short search each.
    searched = [_mixture(seed, n, n + 1, i, "separable_exact", tag="search")
                for n in (3, 4, 5, 6) for i in range(8)]
    slow, cheap = _coverage_analyze(seed)
    slow_pv, cheap_pv = _coverage_provec(seed)
    # The CLI processes are most of a round, so every analysis is timed
    # twice per round: the 90th percentile, a state on a short certified
    # path, moved by 20% between runs with two or three timings per state.
    once = (slow + slow_pv + [Op("cli", c) for c in (cases[0], cases[100], cases[-1])])
    repeated = ([Op("analyze", c) for c in cases] + cheap + cheap_pv
                + [Op("provec", c, "find_product_vectors") for c in searched])
    return _round(seed, once, repeated, reps=2)


WORKLOADS = {
    "certify-2xN": certify_2xn,
    "ppt-2x4": ppt_2x4,
    "screen": screen,
}
