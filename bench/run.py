#!/usr/bin/env python3
"""Seeded end-to-end benchmark of gramsep.

Usage (from the repository root):

    python3 bench/run.py --workload certify-2xN --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout that holds this file;
nothing needs installing.  One process runs every operation with BLAS pinned
to one thread; CLI operations start one fresh interpreter each.  Times are
scaled to a reference host speed measured alongside them (speed.py).  The
last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  Exit code 2 means the program could not be found or set up.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "bench")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SETUP_REPS = 3
CHILD_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    """Environment of the CLI and import-timing interpreters.  Bytecode
    caching is left on, as for an installed package: the discarded first
    import writes the cache under src/."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    return env


def import_program():
    if not os.path.isfile(os.path.join(SRC, "gramsep", "cli.py")):
        fail(f"no gramsep sources under {SRC}")
    sys.path.insert(0, SRC)
    from gramsep import cli, densmat, provec, sep, twoxn
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"gramsep was imported from {cli.__file__}, not from {SRC}")
    return {"cli": cli, "densmat": densmat, "provec": provec, "sep": sep, "twoxn": twoxn}


def measure_setup(ref: speed.Speed) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing gramsep.cli, as
    measured and at the reference speed; the first import (which may
    compile bytecode) is not counted."""
    cmd = [sys.executable, "-c", "import gramsep.cli"]
    spans = []
    for rep in range(SETUP_REPS + 1):
        ref.probe()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            fail(f"importing gramsep.cli failed:\n{proc.stderr.decode()}")
        if rep:
            spans.append((t0, t1))
    ref.probe()
    return (statistics.median(t1 - t0 for t0, t1 in spans),
            statistics.median((t1 - t0) * ref.scale(t0, t1) for t0, t1 in spans))


def state_json(case) -> dict:
    data = [[[float(z.real), float(z.imag)] for z in row] for row in case.rho]
    return {"m": case.m, "n": case.n, "unnormalized": False, "data": data}


@dataclass
class Result:
    kind: str
    seconds: float            # as measured
    verdict: str | None
    failed: bool = False      # raised, or a check rejected the output
    wrong: bool = False       # a check rejected the output
    span: tuple = (0.0, 0.0)  # perf_counter at the start and end of the operation
    scaled: float = 0.0       # seconds at the reference speed (speed.py)


class Runner:
    def __init__(self, mods: dict, ops: list[Op]):
        self.mods = mods
        self.ops = ops
        self.tracer = None
        self.speed = speed.in_process()
        self.interpreter = speed.interpreter(child_env(), ROOT, CHILD_TIMEOUT_S)
        self.cli_paths = {}
        os.makedirs(os.path.join(BUILD, "states"), exist_ok=True)
        for i, op in enumerate(ops):
            if op.kind == "cli":
                path = os.path.join(BUILD, "states", f"{i}.json")
                with open(path, "w") as fh:
                    json.dump(state_json(op.case), fh)
                self.cli_paths[i] = path
        self.reported = set()

    def _validated(self, case):
        return self.mods["densmat"].validate_density(case.rho, case.m, case.n)

    def _analyze(self, case):
        if self.tracer is not None:
            self.tracer.state_dim = case.m * case.n
        try:
            t0 = time.perf_counter()
            report = self.mods["cli"].analyze_state(self._validated(case))
            dt = time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.state_dim = None
        return dt, checks.check_verdict(case, report)

    def _provec(self, case, fn):
        provec = self.mods["provec"]
        t0 = time.perf_counter()
        rho = self._validated(case)
        out = getattr(provec, fn)(rho)
        dt = time.perf_counter() - t0
        if fn == "edge_state_test":
            w = out.witness
            checks.check_edge(out.verdict, None if w is None else (w.e, w.f), case)
        else:
            checks.check_hits([(h.e, h.f) for h in out], case,
                              min_hits=1 if fn == "determinant_equation_57" else 0)
        return dt, None

    def _cli(self, index, case):
        cmd = [sys.executable, "-m", "gramsep.cli", "analyze", self.cli_paths[index]]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"CLI exited {proc.returncode}: {proc.stderr.decode()}")
        return dt, checks.check_verdict(case, json.loads(proc.stdout))

    def run_round(self) -> list[Result]:
        out = []
        for i, op in enumerate(self.ops):
            self.speed.tick()
            if op.kind == "cli":
                self.interpreter.probe()
            t0 = time.perf_counter()
            try:
                if op.kind == "analyze":
                    dt, verdict = self._analyze(op.case)
                elif op.kind == "provec":
                    dt, verdict = self._provec(op.case, op.fn)
                else:
                    dt, verdict = self._cli(i, op.case)
                    self.interpreter.probe()
                out.append(Result(op.kind, dt, verdict, span=(t0, time.perf_counter())))
            except Exception as exc:  # every failure is counted, the run goes on
                if i not in self.reported:
                    self.reported.add(i)
                    print(f"bench: {op.kind} {op.fn} {op.case.name} failed:\n"
                          f"{traceback.format_exc()}", file=sys.stderr)
                out.append(Result(op.kind, float("nan"), None, failed=True,
                                  wrong=isinstance(exc, checks.CheckFailed)))
        self.speed.tick()
        return out

    def scale(self, rounds: list[list[Result]]) -> None:
        """Fill in every result's time at the reference speed: in-process
        operations by the kernel probes, CLI processes by the interpreter
        probes (speed.py)."""
        for rnd in rounds:
            for res in rnd:
                if not res.failed:
                    ref = self.interpreter if res.kind == "cli" else self.speed
                    res.scaled = res.seconds * ref.scale(*res.span)


def warm_up(mods: dict) -> None:
    """First calls pay for lazy imports and allocator growth; keep them
    out of the measurement."""
    dm = mods["densmat"].validate_density(inputs.werner(0.2), 2, 2)
    mods["cli"].analyze_state(dm)


def per_op_seconds(rounds: list[list[Result]], ops: list[Op], kind: str,
                   attr: str = "scaled") -> dict:
    """Median of each operation's timings (repeats within a round and across
    rounds), by family: {(fn, family): [seconds per distinct operation]}.
    Coverage operations are left out."""
    samples = {}
    for i, op in enumerate(ops):
        if op.kind == kind and not op.coverage:
            key = (op.fn, op.case.family, op.case.name)
            samples.setdefault(key, []).extend(
                getattr(rnd[i], attr) for rnd in rounds if not rnd[i].failed)
    fams = {}
    for (fn, family, _), times in samples.items():
        if times:
            fams.setdefault((fn, family), []).append(statistics.median(times))
    return fams


def typical_rate(fams: dict) -> float:
    """Operations per second when every operation costs its family's median.

    Analysis time is heavy-tailed within a family (a state whose first
    descent fails can cost 50x the family median) and single timings catch
    bursts of load from the rest of the host, so a plain sum over a round
    would mostly measure which seed drew a slow state.
    """
    count = sum(len(v) for v in fams.values())
    return count / sum(len(v) * statistics.median(v) for v in fams.values())


def end_to_end(rounds: list[list[Result]], ops: list[Op], setup_s: float,
               attr: str = "scaled") -> dict:
    """The end-to-end metrics from the times at the reference speed, or
    with ``attr="seconds"`` from the times as measured."""
    analyze = per_op_seconds(rounds, ops, "analyze", attr)
    per_state = [t for v in analyze.values() for t in v]
    cli = [getattr(r, attr) for rnd in rounds for r in rnd if r.kind == "cli" and not r.failed]
    verdicts = {}                     # first verdict of each distinct state
    for op, res in zip(ops, rounds[0]):
        if op.kind == "analyze" and not op.coverage and not res.failed:
            verdicts.setdefault(op.case.name, res.verdict)
    first = list(verdicts.values())
    return {
        "setup_s": (setup_s, "s"),
        "analyze_per_s": (typical_rate(analyze), "states/s"),
        "certified": (sum(v == checks.SEPARABLE for v in first), "count"),
        "decided": (sum(v != checks.UNDECIDED for v in first), "count"),
        "analyze_ms_p50": (1000 * float(np.percentile(per_state, 50)), "ms"),
        "analyze_ms_p90": (1000 * float(np.percentile(per_state, 90)), "ms"),
        "provec_per_s": (typical_rate(per_op_seconds(rounds, ops, "provec", attr)), "calls/s"),
        "cli_ms_p50": (1000 * statistics.median(cli), "ms"),
    }


def kind_seconds(rounds: list[list[Result]], kind: str) -> float:
    return sum(r.seconds for rnd in rounds for r in rnd if r.kind == kind and not r.failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = import_program()
    ops = WORKLOADS[args.workload](args.seed)
    runner = Runner(mods, ops)
    raw_setup_s, setup_s = measure_setup(runner.interpreter)
    print(f"bench: {args.workload} seed {args.seed}: {len(ops)} operations per round, "
          f"inputs {inputs.digest([op.case for op in ops])}", file=sys.stderr)
    warm_up(mods)

    tracer = None
    if args.trace:
        from layers import Tracer
        t0 = time.perf_counter()
        runner.run_round()                       # untraced reference round
        untraced_wall = time.perf_counter() - t0
        tracer = runner.tracer = Tracer(mods)
    # Whole rounds only: start another one only while it is expected to end
    # within the measuring time, so a run lasts about max(seconds, 1 round).
    rounds, walls = [], []
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        while not rounds or (time.perf_counter() - start + statistics.mean(walls)
                             <= args.seconds):
            t0 = time.perf_counter()
            rounds.append(runner.run_round())
            walls.append(time.perf_counter() - t0)

    results = [res for rnd in rounds for res in rnd]
    if tracer is None:
        runner.scale(rounds)
        metrics = end_to_end(rounds, ops, setup_s)
        raw = end_to_end(rounds, ops, raw_setup_s, attr="seconds")
        print("bench: as measured: " + json.dumps({k: v for k, (v, _) in raw.items()}),
              file=sys.stderr)
    else:
        metrics = tracer.metrics(len(rounds), kind_seconds(rounds, "analyze"),
                                 kind_seconds(rounds, "provec"))
        metrics["trace.overhead_ms"] = (1000 * (statistics.median(walls) - untraced_wall), "ms")
    print(f"bench: {len(rounds)} rounds, round wall {statistics.median(walls):.2f} s; "
          f"probe median {1e3 * runner.speed.raw_median():.3f} ms over "
          f"{len(runner.speed.took)} kernel probes (nominal {1e3 * runner.speed.nominal_s:.3f} ms), "
          f"interpreter median {runner.interpreter.raw_median():.3f} s over "
          f"{len(runner.interpreter.took)} (nominal {runner.interpreter.nominal_s:.3f} s)",
          file=sys.stderr)
    result = {
        "correct": not any(res.wrong for res in results),
        "attempted": len(results),
        "failed": sum(res.failed for res in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
