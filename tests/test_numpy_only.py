"""The runtime needs only numpy: with scipy unimportable, every module of
the package imports and every route steps with gradients on."""

import os
import subprocess
import sys

CODE = """
import importlib
import pkgutil
import sys

sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

import numpy as np

import streamvi

names = [info.name for info in pkgutil.walk_packages(streamvi.__path__, "streamvi.")]
for name in names:
    importlib.import_module(name)

from streamvi import engine, models, variational as var

for method in ("full", "categorical", "accept_reject"):
    rng = np.random.default_rng(0)
    m = models.LinearGaussianSSM(F=0.7 * np.eye(2), G=np.eye(2), q_var=0.1, r_var=0.25)
    runner = engine.AmortizedRunner(var.init_amortizer(rng, 2, 2, hidden=4, head_hidden=(5,),
                                                       pot_hidden=(5,), scale=0.6))
    cfg = engine.EngineConfig(n_particles=8, method=method,
                              clip_enabled=method == "accept_reject")
    state = engine.init_state(m, runner, np.zeros(2), cfg, rng)
    for y in rng.normal(size=(3, 2)):
        state, out = engine.step(state, y, m, cfg, rng)
    assert np.isfinite(out.elbo), method
    assert np.all(np.isfinite(out.grad_phi)) and np.all(np.isfinite(out.grad_theta)), method
assert sys.modules["scipy"] is None
print(" ".join(sorted(names)))
"""


def test_runtime_imports_and_steps_without_scipy():
    out = subprocess.run([sys.executable, "-c", CODE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0, out.stderr
    names = set(out.stdout.split())
    assert {"streamvi.engine", "streamvi.gradients", "streamvi.oracle"} <= names
