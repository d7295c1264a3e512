"""Every function that the benchmark's tracer wraps runs on the main thread.

The tracer (``perfbench/tracing.py``) keeps one stack of open spans and is
not thread-safe, so the engine's helper thread may run only code that it
does not wrap: the g products and the theta pair rows.  A tracer that also
records the calling thread wraps every name the benchmark wraps, and full,
categorical and accept-reject steps run on blocks of 8 of 24 rows.
"""

import functools
import importlib.util
import os
import threading

import numpy as np
import pytest

from streamvi import engine, mlp, models, variational as var

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N = 24
D = 2


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


class ThreadTracer(tracing.Tracer):
    """A ``Tracer`` that also records the thread of every wrapped call."""

    def __init__(self):
        super().__init__()
        self.calls: list[tuple[str, threading.Thread]] = []

    def wrap(self, owner, attr, label, hook=None):
        super().wrap(owner, attr, label, hook)
        traced = getattr(owner, attr)
        calls = self.calls

        @functools.wraps(traced)
        def recorded(*args, **kwargs):
            calls.append((label, threading.current_thread()))
            return traced(*args, **kwargs)

        self._saved.append((owner, attr, traced))   # restored first, then the original
        setattr(owner, attr, recorded)


def make_model(kind, rng):
    if kind == "lgssm":
        return models.LinearGaussianSSM(F=0.7 * np.eye(D), G=np.eye(D), q_var=0.1, r_var=0.25)
    return models.ResidualNonlinearSSM(
        f_net=mlp.init_mlp(rng, [D, 6, D], scale=0.5),
        g_net=mlp.init_mlp(rng, [D, 6, D], scale=0.5),
        q_diag=np.full(D, 0.1), r_diag=np.full(D, 0.25))


def run_steps(kind, method, steps=3):
    rng = np.random.default_rng(5)
    model = make_model(kind, rng)
    runner = engine.AmortizedRunner(var.init_amortizer(rng, D, D, hidden=4, head_hidden=(5,),
                                                       pot_hidden=(5,), scale=0.6))
    config = engine.EngineConfig(n_particles=N, method=method,
                                 clip_enabled=method == "accept_reject")
    state = engine.init_state(model, runner, np.zeros(D), config, rng)
    for y in rng.normal(size=(steps, D)):
        state, _ = engine.step(state, y, model, config, rng)


@pytest.mark.parametrize("method", ["full", "categorical", "accept_reject"])
@pytest.mark.parametrize("kind", ["lgssm", "residual"])
def test_traced_names_run_on_the_main_thread(kind, method, monkeypatch):
    monkeypatch.setattr(engine, "ROW_BLOCK_BYTES", 8 * N * 8)
    assert len(engine.row_blocks(N, N)) == 3
    step, tracer = engine.step, ThreadTracer()
    with tracing.installed(tracer):
        run_steps(kind, method)
    assert engine.step is step
    labels = {label for label, _ in tracer.calls}
    assert {"engine.step", "runner.kernel_phi_contract", "mlp.vjp_params_batched"} <= labels
    if method != "accept_reject":
        assert "engine.compute_weights" in labels
    off_main = sorted({label for label, thread in tracer.calls
                       if thread is not threading.main_thread()})
    assert off_main == []
    own, _ = tracer.self_times()
    assert min(own) >= 0
