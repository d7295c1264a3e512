"""The three benchmark workloads: seeded inputs and the engine set-up.

Each workload is one route x model cell of the engine.  Observations come
from the small simulators below, not from ``streamvi.models``, so a
refactor of the models cannot change what the engine is fed.  Every random
draw derives from the workload seed through one ``SeedSequence``: model
parameters, the stream, the amortizer weights and the engine's generator
each get their own child.

``streamvi`` is imported inside ``build`` only, so that timing ``build``
in a fresh process measures the package's import cost (the set-up time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Model constants.  The LGSSM is F = 0.7 I, G = I with mu0 = 0, q0_var = 1;
# the residual constants are passed explicitly to the model class, so a
# change of its defaults cannot change the workload.
LGSSM_F = 0.7
LGSSM_Q = 0.1
LGSSM_R = 0.25
RESIDUAL_HIDDEN = 16
RESIDUAL_SCALE = 0.5
RESIDUAL_Q = 0.1
RESIDUAL_R = 0.25

# Amortized family shared by every workload.
AMORTIZER = dict(hidden=16, head_hidden=(16,), pot_hidden=(16,), scale=0.5)
WINDOW = 2
M_BACKWARD = 2


@dataclass(frozen=True)
class Workload:
    name: str
    model: str        # lgssm | residual
    d: int            # d_x = d_y
    method: str       # engine route: full | categorical | accept_reject
    n: int            # particles
    grads: bool       # phi- and theta-gradients on
    clip: bool        # potential clamping at the engine's default bounds
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("full_lgssm_d2", "lgssm", 2, "full", 2000, True, False,
             "dense N^2 full-weights route with phi+theta gradients; "
             "shows GEMM-path work on the cross terms; Kalman oracle"),
    Workload("ar_lgssm_d2", "lgssm", 2, "accept_reject", 200, True, True,
             "accept-reject index draws at default clip bounds dominate; "
             "no dense cross is built, so dense-path changes should not move it"),
    Workload("full_residual_d2", "residual", 2, "full", 500, True, False,
             "residual-MLP model whose theta contraction dominates; "
             "guards the models refactor against regressions"),
)}


@dataclass
class Inputs:
    workload: Workload
    arrays: dict                        # raw arrays the model is built from
    ys: np.ndarray                      # (length + 1, d) observations
    amortizer_seed: np.random.SeedSequence
    engine_seed: np.random.SeedSequence


def make_inputs(w: Workload, seed: int, length: int) -> Inputs:
    """Model parameters and ``length + 1`` observations, all from ``seed``.

    The stream is drawn sequentially, so its first observations do not
    depend on ``length``.
    """
    ss_model, ss_stream, ss_amortizer, ss_engine = np.random.SeedSequence(seed).spawn(4)
    rng = np.random.default_rng(ss_model)
    arrays: dict = {}
    if w.model == "residual":
        sizes = [w.d, RESIDUAL_HIDDEN, w.d]
        arrays["f_layers"] = _mlp_layers(rng, sizes)
        arrays["g_layers"] = _mlp_layers(rng, sizes)
    simulate = {"lgssm": simulate_lgssm, "residual": _simulate_residual}[w.model]
    ys = simulate(arrays, w.d, length, np.random.default_rng(ss_stream))
    return Inputs(workload=w, arrays=arrays, ys=ys, amortizer_seed=ss_amortizer,
                  engine_seed=ss_engine)


def _mlp_layers(rng, sizes):
    """(W, b) pairs distributed as ``streamvi.mlp.init_mlp`` draws them."""
    return [(rng.standard_normal((fan_out, fan_in)) * (RESIDUAL_SCALE / math.sqrt(fan_in)),
             np.zeros(fan_out)) for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]


def _mlp(layers, x):
    for i, (w, b) in enumerate(layers):
        x = w @ x + b
        if i < len(layers) - 1:
            x = np.tanh(x)
    return x


def simulate_lgssm(arrays, d, length, rng):
    ys = np.empty((length + 1, d))
    x = rng.standard_normal(d)
    for t in range(length + 1):
        if t:
            x = LGSSM_F * x + math.sqrt(LGSSM_Q) * rng.standard_normal(d)
        ys[t] = x + math.sqrt(LGSSM_R) * rng.standard_normal(d)
    return ys


def _simulate_residual(arrays, d, length, rng):
    f, g = arrays["f_layers"], arrays["g_layers"]
    ys = np.empty((length + 1, d))
    x = rng.standard_normal(d)
    for t in range(length + 1):
        if t:
            x = x + _mlp(f, x) + math.sqrt(RESIDUAL_Q) * rng.standard_normal(d)
        ys[t] = _mlp(g, x) + math.sqrt(RESIDUAL_R) * rng.standard_normal(d)
    return ys


@dataclass
class EngineRun:
    """What ``engine.step`` needs, plus the state it returned last."""

    model: object
    config: object
    state: object
    rng: np.random.Generator


def lgssm(d: int):
    from streamvi import models
    return models.LinearGaussianSSM(F=LGSSM_F * np.eye(d), G=np.eye(d),
                                    q_var=LGSSM_Q, r_var=LGSSM_R)


def build(inputs: Inputs, rng: np.random.Generator) -> EngineRun:
    """Import streamvi, construct model, amortizer and runner, and init the cloud."""
    from streamvi import engine, mlp, models, variational as var

    w = inputs.workload
    if w.model == "lgssm":
        model = lgssm(w.d)
    else:
        model = models.ResidualNonlinearSSM(
            f_net=mlp.MLPParams(layers=list(inputs.arrays["f_layers"])),
            g_net=mlp.MLPParams(layers=list(inputs.arrays["g_layers"])),
            q_diag=np.full(w.d, RESIDUAL_Q), r_diag=np.full(w.d, RESIDUAL_R))
    params = var.init_amortizer(np.random.default_rng(inputs.amortizer_seed), w.d, w.d,
                                **AMORTIZER)
    runner = engine.AmortizedRunner(params, window=WINDOW, compute_grads=w.grads)
    config = engine.EngineConfig(n_particles=w.n, method=w.method, m_backward=M_BACKWARD,
                                 clip_enabled=w.clip, truncation_window=WINDOW,
                                 compute_grads=w.grads)
    state = engine.init_state(model, runner, inputs.ys[0], config, rng)
    return EngineRun(model=model, config=config, state=state, rng=rng)
