"""Per-layer timers and counters for the traced run.

The program looks its collaborators up as module attributes at call time
(``twoxn.solve_extension_general``, ``sep.joint_diagonalize``,
``scipy.optimize.least_squares``, ``numpy.linalg.eigh``, ...), so replacing
those attributes with timing wrappers records every call without editing
the program.  Spans nest: a span's self time is its duration minus the
time of the spans opened inside it.  Nothing is written out until the run
ends; :meth:`Tracer.metrics` turns the totals into per-layer metrics.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import scipy.optimize

# (module attribute, metric name) for every timed layer function.
SPANS = [
    ("cli", "analyze_state"),
    ("densmat", "rank_pattern"),
    ("densmat", "is_ppt"),
    ("densmat", "validate_density"),
    ("twoxn", "canonical_form"),
    ("twoxn", "rank_n_test"),
    ("twoxn", "self_pt_extension"),
    ("twoxn", "solve_extension_55"),
    ("twoxn", "solve_extension_56"),
    ("twoxn", "solve_extension_general"),
    ("twoxn", "extension_to_decomposition"),
    ("sep", "verify_ffcnm"),
    ("sep", "extract_certificate"),
    ("sep", "joint_diagonalize"),
    ("sep", "decomposition_to_certificate"),
    ("sep", "verify_certificate"),
    ("provec", "find_product_vectors"),
    ("provec", "edge_state_test"),
    ("provec", "determinant_equation_57"),
]


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, modules: dict):
        self.modules = modules            # short name -> imported module
        self.self_s = {f"{m}.{f}": 0.0 for m, f in SPANS}
        self.calls = {f"{m}.{f}": 0 for m, f in SPANS}
        self.self_s["lm"] = 0.0
        self.calls["lm"] = 0
        self.incl_s = dict.fromkeys(self.self_s, 0.0)   # duration, children included
        self.top_s = dict.fromkeys(self.self_s, 0.0)    # duration of outermost calls
        self.lm_nfev = 0
        self.general_accepted = 0
        self.hits = 0
        self.eigensolves = 0              # full-dimension, inside analyze ops
        self.state_dim = None             # set by the runner around analyze ops
        self._stack = []                  # child time accumulated per open span
        self._saved = []

    # -- span bookkeeping ---------------------------------------------------
    def _timed(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                self.self_s[name] += dt - child
                self.incl_s[name] += dt
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += dt
                else:
                    self.top_s[name] += dt
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _counted_eig(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self.state_dim is not None and np.shape(a)[-1] == self.state_dim:
                self.eigensolves += 1
            return fn(a, *args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _on_general(self, sol):
        self.general_accepted += int(bool(sol.accepted))

    def _on_lm(self, res):
        self.lm_nfev += int(res.nfev)

    def _on_hits(self, hits):
        self.hits += len(hits)

    def __enter__(self):
        hooks = {
            "twoxn.solve_extension_general": self._on_general,
            "provec.find_product_vectors": self._on_hits,
            "provec.determinant_equation_57": self._on_hits,
        }
        for mod, fn in SPANS:
            name = f"{mod}.{fn}"
            owner = self.modules[mod]
            self._patch(owner, fn, self._timed(name, getattr(owner, fn), hooks.get(name)))
        self._patch(scipy.optimize, "least_squares",
                    self._timed("lm", scipy.optimize.least_squares, self._on_lm))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self._counted_eig(getattr(np.linalg, attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    # -- results --------------------------------------------------------------
    def metrics(self, rounds: int, analyze_s: float, provec_s: float) -> dict:
        """Per-round values: self time in ms and call counts per layer, plus
        the share of operation time spent inside the layers each workload
        is meant to load."""
        out = {}
        for name in self.self_s:
            out[f"{name}.ms"] = (1000 * self.self_s[name] / rounds, "ms")
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
        out["lm.nfev"] = (self.lm_nfev / rounds, "count")
        general = self.calls["twoxn.solve_extension_general"]
        out["twoxn.solve_extension_general.accepted"] = (
            self.general_accepted / general if general else 0.0, "ratio")
        out["provec.hits"] = (self.hits / rounds, "count")
        analyzed = self.calls["cli.analyze_state"]
        out["spectral.eigensolves"] = (self.eigensolves / analyzed if analyzed else 0.0, "count")
        out["share.general_solver"] = (
            self.incl_s["twoxn.solve_extension_general"] / analyze_s, "ratio")
        provec_top = sum(v for k, v in self.top_s.items() if k.startswith("provec."))
        out["share.provec"] = (provec_top / provec_s, "ratio")
        return out
