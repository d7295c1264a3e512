"""The closed stream loop, the correctness checks and the metrics.

One stream per run, one client: observation t+1 is sent only after
``engine.step`` returned for observation t.  The first ``WARMUP_STEPS``
steps are run but not timed.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import tracing, workloads as wl

WARMUP_STEPS = 1
MIN_TIMED_STEPS = 11        # so that step_ms_tail has ten timed steps beyond it
MAX_TIMED_SECONDS = 120.0   # hard stop for the timed loop, so a run ends within 3 minutes
MAX_STREAM = 5000           # observations generated; a run stops earlier at its time budget
ORACLE_T = 10
ORACLE_N = {"full": 300, "categorical": 300, "accept_reject": 32}
ORACLE_RTOL = 1e-9
KALMAN_STDERRS = 4.0
TRACE_MIN_STEPS = 3
TRACE_RTOL = 1e-9

# Units of every metric, as BENCHMARK.json declares them.
END_TO_END_UNITS = {
    "obs_per_s": "obs/s", "step_ms_p50": "ms", "step_ms_tail": "ms",
    "peak_rss_mb": "MiB", "setup_s": "s", "ok_step_frac": "ratio",
}
SELF_MS_LAYERS = (
    "runner.begin_step", "gradients.marginal_chain", "engine.build_kernel",
    "variational.potential_params_batch", "gaussian.log_density_cross",
    "gaussian.sample", "engine.compute_weights", "engine.pair_terms",
    "models.log_m_cross", "models.log_m_gathered", "models.log_g_batch",
    "engine.update_statistics", "engine.backward_sample_update",
    "runner.kernel_phi_contract", "gradients.marginal_cotangent_phi",
    "mlp.vjp_params_batched", "models.grad_theta_pair_contract",
    "mlp.vjp_params_cross", "models.grad_theta_transition_pairs",
    "models.grad_theta_emission_batch", "engine.estimate",
    "gradients.marginal_scores_phi", "engine.init_state", "engine.step",
)
PER_LAYER_UNITS = {
    **{label + ".self_ms": "ms" for label in SELF_MS_LAYERS},
    "gradients.marginal_chain.calls": "calls/step",
    "gaussian.log_density_cross.pairs": "pairs/step",
    "weights.ess_min": "particles", "weights.ess_p50": "particles", "weights.max_w": "ratio",
    "ar.proposals_per_draw": "ratio", "ar.fallback_row_frac": "ratio",
    "grad.phi_norm": "norm", "grad.theta_norm": "norm",
    "trace.step_ms_p50": "ms", "trace.step_self_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class StreamResult:
    step_s: list[float] = field(default_factory=list)   # wall time of each good timed step
    outputs: list = field(default_factory=list)         # EstimatorOutput of each good step
    attempted: int = 0                                   # timed steps sent
    failed: int = 0                                      # timed steps failed, or sent after a failure
    error: str | None = None                             # traceback of the first failure
    t_last: int = 0                                      # last observation index stepped


def _finite(out) -> bool:
    return (math.isfinite(out.elbo)
            and all(g is None or bool(np.all(np.isfinite(g)))
                    for g in (out.grad_phi, out.grad_theta)))


def run_stream(run: wl.EngineRun, ys: np.ndarray, seconds: float,
               min_steps: int = MIN_TIMED_STEPS) -> StreamResult:
    """Step through ``ys[1:]`` until ``seconds`` of timed steps have passed.

    A step fails if it raises or returns a non-finite ELBO or gradient.
    The engine state is then already changed, so every later step of the
    stream counts as failed as well.
    """
    from streamvi import engine

    res = StreamResult()
    dead = False
    started = None
    for t in range(1, len(ys)):
        timed = t > WARMUP_STEPS
        if timed:
            if started is None:
                started = time.perf_counter()
            elapsed = time.perf_counter() - started
            if ((elapsed >= seconds and res.attempted >= min_steps)
                    or elapsed >= MAX_TIMED_SECONDS):
                break
        t0 = time.perf_counter()
        try:
            state, out = engine.step(run.state, ys[t], run.model, run.config, run.rng)
            ok = _finite(out)
            if not ok and res.error is None:
                res.error = f"non-finite estimate at t={t}"
        except Exception:
            ok = False
            if res.error is None:
                res.error = traceback.format_exc()
        dt = time.perf_counter() - t0
        res.t_last = t
        dead = dead or not ok
        if not dead:
            run.state = state
            res.outputs.append(out)
        if timed:
            res.attempted += 1
            if dead:
                res.failed += 1
            else:
                res.step_s.append(dt)
    return res


def step_tail(step_s: list[float]):
    """(value, percentile, count): the highest percentile with ten steps beyond it.

    With ``n`` steps that is the (n-10)-th smallest, at percentile
    100 (n-10)/n.  Below 11 steps no percentile has ten beyond it; the
    smallest step is reported at percentile 0.
    """
    s = sorted(step_s)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[0], 0.0, n


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def oracle_check(method: str, seed: int, n: int | None = None,
                 t_len: int = ORACLE_T) -> dict:
    """ELBO of the exact conjugate family against the closed form, every step.

    With the exact backward kernels every particle carries the same h - log q,
    so the estimate has zero variance and must equal ``oracle.exact_elbo``
    to rounding.
    """
    from streamvi import engine, oracle, variational as var

    n = ORACLE_N[method] if n is None else n
    model = wl.lgssm(2)
    ss_stream, ss_engine = np.random.SeedSequence([seed, 7]).spawn(2)
    ys = wl.simulate_lgssm({}, 2, t_len, np.random.default_rng(ss_stream))
    family = var.exact_conjugate_mode(model, oracle.kalman_filter(model, ys))
    config = engine.EngineConfig(n_particles=n, method=method, compute_grads=False,
                                 clip_enabled=method == "accept_reject")
    rng = np.random.default_rng(ss_engine)
    state = engine.init_state(model, engine.ConjugateRunner(family), ys[0], config, rng)
    worst = 0.0
    for t in range(t_len + 1):
        if t:
            state, out = engine.step(state, ys[t], model, config, rng)
        else:
            out = engine.estimate(state.cloud, use_control_variates=config.cv_grad_phi)
        exact = oracle.exact_elbo(model, family, ys[:t + 1])
        worst = max(worst, abs(out.elbo - exact) / max(1.0, abs(exact)))
    return {"name": f"oracle_{method}", "passed": bool(worst <= ORACLE_RTOL),
            "max_rel_err": worst, "n": n, "T": t_len}


def kalman_check(run: wl.EngineRun, ys: np.ndarray, res: StreamResult) -> dict:
    """Final ELBO at most the exact log-likelihood plus 4 standard errors."""
    from streamvi import oracle

    cloud = run.state.cloud
    loglik = oracle.kalman_filter(run.model, ys[:cloud.t + 1]).loglik
    vals = cloud.h_stat - cloud.log_q_marginal
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    elbo = res.outputs[-1].elbo if res.outputs else float("nan")
    return {"name": "kalman_bound", "passed": bool(elbo <= loglik + KALMAN_STDERRS * stderr),
            "elbo": elbo, "loglik": loglik, "stderr": stderr, "t": cloud.t}


def stream_checks(w: wl.Workload, seed: int, run: wl.EngineRun, ys: np.ndarray,
                  res: StreamResult, oracle_n: int | None = None) -> list[dict]:
    checks = [{"name": "all_steps_finite", "passed": res.error is None,
               "error": res.error}]
    if w.model == "lgssm":
        checks.append(kalman_check(run, ys, res))
    # every route, also the categorical one that no workload times
    checks += [oracle_check(method, seed, n=oracle_n) for method in ORACLE_N]
    return checks


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def _rate(step_s: list[float]) -> float:
    return len(step_s) / sum(step_s) if step_s else 0.0


def measure(w: wl.Workload, seed: int, seconds: float,
            min_steps: int = MIN_TIMED_STEPS, length: int = MAX_STREAM,
            oracle_n: int | None = None) -> dict:
    """Untraced run: the end-to-end metrics except set-up time and memory."""
    inputs = wl.make_inputs(w, seed, length)
    run = wl.build(inputs, np.random.default_rng(inputs.engine_seed))
    res = run_stream(run, inputs.ys, seconds, min_steps)
    checks = stream_checks(w, seed, run, inputs.ys, res, oracle_n)
    if res.error:
        print(res.error, file=sys.stderr)
    tail, tail_pct, count = step_tail(res.step_s) if res.step_s else (0.0, 0.0, 0)
    return {
        "correct": all(c["passed"] for c in checks),
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            "obs_per_s": _rate(res.step_s),
            "step_ms_p50": 1e3 * statistics.median(res.step_s) if res.step_s else 0.0,
            "step_ms_tail": 1e3 * tail,
            "ok_step_frac": (res.attempted - res.failed) / max(res.attempted, 1),
        },
        "details": {"checks": checks,
                    "step_ms_tail_percentile": tail_pct,
                    "step_ms_tail_samples": count,
                    "observations_stepped": res.t_last},
    }


def _max_rel_dev(a_outs, b_outs) -> float:
    worst = 0.0
    for a, b in zip(a_outs, b_outs):
        pairs = [(np.asarray(a.elbo), np.asarray(b.elbo))]
        pairs += [(x, y) for x, y in ((a.grad_phi, b.grad_phi), (a.grad_theta, b.grad_theta))
                  if x is not None or y is not None]
        for x, y in pairs:
            if x is None or y is None:
                return math.inf
            worst = max(worst, float(np.max(np.abs(x - y) / np.maximum(1.0, np.abs(x)))))
    return worst


def measure_traced(w: wl.Workload, seed: int, seconds: float,
                   min_steps: int = TRACE_MIN_STEPS, length: int = MAX_STREAM,
                   oracle_n: int | None = None) -> tuple[dict, tracing.Tracer]:
    """Untraced then traced run of the same seed, half the time each.

    The traced run must reproduce the untraced run's ELBO and gradients;
    their rates give the tracing overhead.
    """
    inputs = wl.make_inputs(w, seed, length)
    plain = run_stream(wl.build(inputs, np.random.default_rng(inputs.engine_seed)),
                       inputs.ys, seconds / 2, min_steps)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        rng = tracing.CountingGenerator(np.random.PCG64(inputs.engine_seed), tracer)
        run = wl.build(inputs, rng)
        res = run_stream(run, inputs.ys, seconds / 2, min_steps)
    checks = stream_checks(w, seed, run, inputs.ys, res, oracle_n)
    common = min(len(plain.outputs), len(res.outputs))
    dev = _max_rel_dev(plain.outputs[:common], res.outputs[:common])
    checks.append({"name": "trace_reproduces_untraced", "passed": common > 0 and dev <= TRACE_RTOL,
                   "steps_compared": common, "max_rel_dev": dev})
    for r in (plain, res):
        if r.error:
            print(r.error, file=sys.stderr)

    roots = [i for i, s in enumerate(tracer.spans) if s[0] == "engine.step" and s[3] < 0]
    roots = roots[WARMUP_STEPS:WARMUP_STEPS + len(res.step_s)]
    layers = tracing.layer_summary(tracer, roots)
    init = tracing.layer_summary(
        tracer, [i for i, s in enumerate(tracer.spans) if s[0] == "engine.init_state"])

    def get(label, key="self_ms"):
        return layers.get(label, {}).get(key, 0.0)

    metrics = {label + ".self_ms": get(label) for label in SELF_MS_LAYERS}
    metrics["engine.init_state.self_ms"] = init.get("engine.init_state", {}).get("self_ms", 0.0)
    metrics["gradients.marginal_chain.calls"] = get("gradients.marginal_chain", "calls")
    metrics["gaussian.log_density_cross.pairs"] = get("gaussian.log_density_cross", "pairs")
    for key in ("ess_min", "ess_p50", "max_w"):
        metrics["weights." + key] = get("engine.compute_weights", key)
    draws = w.n * run.config.m_backward
    metrics["ar.proposals_per_draw"] = get("engine.backward_sample_update", "integers") / draws
    metrics["ar.fallback_row_frac"] = get("gaussian.log_density_cross", "fallback_rows") / w.n
    timed_outs = res.outputs[WARMUP_STEPS:]
    metrics["grad.phi_norm"] = _median_norm(o.grad_phi for o in timed_outs)
    metrics["grad.theta_norm"] = _median_norm(o.grad_theta for o in timed_outs)
    step_ms = 1e3 * statistics.median(res.step_s) if res.step_s else 0.0
    metrics["trace.step_ms_p50"] = step_ms
    metrics["trace.step_self_frac"] = (metrics["engine.step.self_ms"] / step_ms
                                       if step_ms else 0.0)
    metrics["trace.overhead_frac"] = (_rate(plain.step_s) / _rate(res.step_s) - 1.0
                                      if res.step_s else 0.0)
    result = {
        "correct": all(c["passed"] for c in checks),
        "attempted": plain.attempted + res.attempted,
        "failed": plain.failed + res.failed,
        "metrics": metrics,
        "details": {"checks": checks, "timed_steps": len(res.step_s),
                    "untraced_obs_per_s": _rate(plain.step_s),
                    "traced_obs_per_s": _rate(res.step_s),
                    "layers": layers},
    }
    return result, tracer


def _median_norm(grads) -> float:
    norms = [float(np.linalg.norm(g)) for g in grads if g is not None]
    return statistics.median(norms) if norms else 0.0
