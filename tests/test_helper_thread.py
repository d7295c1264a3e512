"""The full route's helper thread: none at import or at the first cloud, a
forked child steps the full route with a helper of its own, and engines in
several threads share it without changing a bit of their outputs."""

import os
import subprocess
import sys
import threading

import numpy as np

from streamvi import engine, mlp, models, variational as var

CODE = """
import os
import signal
import sys
import threading

import numpy as np

threads = threading.active_count()
import streamvi
from streamvi import engine, models, variational as var

rng = np.random.default_rng(0)
m = models.LinearGaussianSSM(F=0.7 * np.eye(2), G=np.eye(2), q_var=0.1, r_var=0.25)
runner = engine.AmortizedRunner(var.init_amortizer(rng, 2, 2, hidden=4, head_hidden=(5,),
                                                   pot_hidden=(5,), scale=0.6))
cfg = engine.EngineConfig(n_particles=64, method="full")
state = engine.init_state(m, runner, np.zeros(2), cfg, rng)
assert threading.active_count() == threads, "a thread started before the first step"
assert "concurrent.futures" not in sys.modules, "concurrent.futures imported at set-up"

ys = rng.normal(size=(2, 2))
state, out = engine.step(state, ys[0], m, cfg, rng)
assert threading.active_count() == threads + 1, "no helper thread after a full step"

pid = os.fork()
if pid == 0:
    signal.alarm(60)   # a child whose step hangs dies rather than outlive the test
    code = 1
    try:
        _, out = engine.step(state, ys[1], m, cfg, rng)
        code = 0 if np.isfinite(out.elbo) and np.all(np.isfinite(out.grad_phi)) else 1
    finally:
        os._exit(code)
_, status = os.waitpid(pid, 0)
print("child", os.waitstatus_to_exitcode(status))
"""


def test_no_helper_at_set_up_and_a_forked_child_steps():
    out = subprocess.run([sys.executable, "-c", CODE], capture_output=True, text=True,
                         timeout=120,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["child", "0"], out.stdout + out.stderr


def full_stream(seed, g_dtype, kind, n=48, steps=4):
    rng = np.random.default_rng(seed)
    if kind == "lgssm":
        model = models.LinearGaussianSSM(F=0.7 * np.eye(2), G=np.eye(2), q_var=0.1,
                                         r_var=0.25)
    else:
        model = models.ResidualNonlinearSSM(
            f_net=mlp.init_mlp(rng, [2, 6, 2], scale=0.5),
            g_net=mlp.init_mlp(rng, [2, 6, 2], scale=0.5),
            q_diag=np.full(2, 0.1), r_diag=np.full(2, 0.25))
    runner = engine.AmortizedRunner(var.init_amortizer(rng, 2, 2, hidden=4, head_hidden=(5,),
                                                       pot_hidden=(5,), scale=0.6))
    config = engine.EngineConfig(n_particles=n, method="full", g_dtype=g_dtype)
    state = engine.init_state(model, runner, np.zeros(2), config, rng)
    outs = []
    for y in rng.normal(size=(steps, 2)):
        state, out = engine.step(state, y, model, config, rng)
        outs.append(out)
    return outs


def test_engines_in_threads_share_the_helper(monkeypatch):
    # blocks of 5 rows, eight streams on more threads than cores, switching
    # often; every stream carries f, so the theta-rows tasks and the g products
    # of different engines interleave on the one helper
    monkeypatch.setattr(engine, "ROW_BLOCK_BYTES", 8 * 48 * 5)
    cases = [(seed, g_dtype, kind) for seed in (1, 2) for g_dtype in ("float32", "float64")
             for kind in ("lgssm", "residual")]
    want = [full_stream(*case) for case in cases]
    got = [None] * len(cases)

    def run(i):
        got[i] = full_stream(*cases[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for case, outs_got, outs_want in zip(cases, got, want):
        assert outs_got is not None, case
        for a, b in zip(outs_got, outs_want):
            assert a.elbo == b.elbo, case
            np.testing.assert_array_equal(a.grad_phi, b.grad_phi, err_msg=str(case))
            np.testing.assert_array_equal(a.grad_theta, b.grad_theta, err_msg=str(case))
