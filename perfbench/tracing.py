"""Spans around the public functions that ``engine.step`` reaches.

The tracer replaces module functions and ``AmortizedRunner`` methods with
timed wrappers from outside the program (``setattr``), so the program has
no tracing code of its own.  Each call records a span: label, start and
end in ns, and the index of the enclosing span.  Spans stay in memory and
are written out by the caller.  A layer's self time is its span's duration
minus the time its direct child spans cover.

Only the functions whose self time the benchmark reports are wrapped, and
no ``_``-prefixed helper: time in an unwrapped helper counts towards the
wrapped caller, so the reported self times add up to the step.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [label, start_ns, end_ns, parent, counts | None]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def note(self, key: str, amount: float) -> None:
        """Add to a count on the innermost open span."""
        if self._stack:
            rec = self.spans[self._stack[-1]]
            if rec[4] is None:
                rec[4] = {}
            rec[4][key] = rec[4].get(key, 0) + amount

    def wrap(self, owner, attr: str, label: str, hook=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper.

        ``hook(tracer, span, result)`` runs after the call, in a span of its
        own (``bench.hook``), so its cost is not charged to the caller; the
        counts it returns are stored on the call's span.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, 0, 0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if hook is not None:
                tracer._hook(hook, rec, result)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def _hook(self, hook, rec, result) -> None:
        span = ["bench.hook", time.perf_counter_ns(), 0, rec[3], None]
        self.spans.append(span)
        counts = hook(self, rec, result)
        if counts:
            rec[4] = {**(rec[4] or {}), **counts}
        span[2] = time.perf_counter_ns()

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self):
        """Per span: self time in ns and the index of its root span."""
        child_ns = [0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        own = [end - start - child_ns[i]
               for i, (_, start, end, _, _) in enumerate(self.spans)]
        return own, root


def _weight_stats(tracer, span, wmat):
    """ESS per row and max weight of a returned ``WeightMatrix``."""
    ess = 1.0 / np.einsum("ij,ij->i", wmat.w, wmat.w)
    return {"ess_min": float(ess.min()), "ess_p50": float(np.median(ess)),
            "max_w": float(wmat.w.max())}


def _cross_pairs(tracer, span, result):
    """Rows x cols of a cross log-density, and rows of the accept-reject fallback."""
    rows, cols = result.shape
    counts = {"pairs": rows * cols}
    parent = span[3]
    if parent >= 0 and tracer.spans[parent][0] == "engine.backward_sample_update":
        counts["fallback_rows"] = rows
    return counts


class CountingGenerator(np.random.Generator):
    """A ``Generator`` that notes how many integers each span draws.

    The engine draws integers only for accept-reject proposals.  The bit
    stream is that of ``np.random.default_rng`` on the same seed.
    """

    def __init__(self, bit_generator, tracer: Tracer):
        super().__init__(bit_generator)
        self.tracer = tracer

    def integers(self, low, high=None, size=None, **kwargs):
        self.tracer.note("integers", 1 if size is None else int(np.prod(size)))
        return super().integers(low, high, size=size, **kwargs)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function for the duration of the block."""
    from streamvi import engine, gaussian, gradients, mlp, models, variational

    try:
        for fn in ("step", "init_state", "build_kernel", "pair_terms",
                   "update_statistics", "backward_sample_update", "estimate"):
            tracer.wrap(engine, fn, f"engine.{fn}")
        tracer.wrap(engine, "compute_weights", "engine.compute_weights", _weight_stats)
        for fn in ("begin_step", "kernel_phi_contract"):
            tracer.wrap(engine.AmortizedRunner, fn, f"runner.{fn}")
        for fn in ("marginal_chain", "marginal_cotangent_phi", "marginal_scores_phi"):
            tracer.wrap(gradients, fn, f"gradients.{fn}")
        tracer.wrap(variational, "potential_params_batch",
                    "variational.potential_params_batch")
        tracer.wrap(gaussian, "sample", "gaussian.sample")
        tracer.wrap(gaussian, "log_density_cross", "gaussian.log_density_cross",
                    _cross_pairs)
        for fn in ("log_m_cross", "log_m_gathered", "log_g_batch",
                   "grad_theta_pair_contract", "grad_theta_transition_pairs",
                   "grad_theta_emission_batch"):
            tracer.wrap(models, fn, f"models.{fn}")
        for fn in ("vjp_params_batched", "vjp_params_cross"):
            tracer.wrap(mlp, fn, f"mlp.{fn}")
        yield tracer
    finally:
        tracer.restore()


def layer_summary(tracer: Tracer, step_roots: list[int]) -> dict:
    """Per-step self ms, calls and counts of every label under the given roots.

    Returns ``{label: {"self_ms": ..., "calls": ..., <count>: ...}}``, each
    the total under the roots divided by the number of roots.
    """
    own, root = tracer.self_times()
    n_steps = max(len(step_roots), 1)
    timed = set(step_roots)
    totals = defaultdict(lambda: defaultdict(float))
    for i, (label, _, _, _, counts) in enumerate(tracer.spans):
        if root[i] not in timed:
            continue
        entry = totals[label]
        entry["self_ms"] += own[i] / 1e6
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry[key] += value
    return {label: {k: v / n_steps for k, v in entry.items()}
            for label, entry in totals.items()}
