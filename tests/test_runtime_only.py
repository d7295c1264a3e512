"""``src/streamvi`` holds the runtime only.

Run as a script, this file steps one short stream per route and model
class, with both gradients on, and one ``ConjugateRunner`` stream whose
ELBO is checked against ``oracle.exact_elbo`` and ``kalman_filter``, all
under ``sys.setprofile``.  It prints every public function and method of
the package and those that the streams entered.  It runs in a fresh
interpreter so that the profile, set with ``threading.setprofile`` too,
covers the full route's helper thread, which is made on the first full
step.

The test fails on a public name that no stream enters unless ``ALLOWED``
names it: a helper that only the tests call belongs in
``tests/reference.py``.
"""

import inspect
import json
import os
import subprocess
import sys

ALLOWED = {
    # traced by the benchmark (perfbench/tracing.py) though no step calls
    # them, and the helpers that only they call; the seventh such name,
    # models.grad_theta_emission_batch, runs in init_state
    "models.log_m_cross", "models.log_m_gathered", "models.grad_theta_pair_contract",
    "models.grad_theta_transition_pairs", "gradients.marginal_scores_phi",
    "mlp.vjp_params_cross", "gradients.natural_scores",
    "models.LinearGaussianSSM.transition_grad_pairs",
    "models.ChaoticRNNModel.transition_grad_pairs",
    "models.ResidualNonlinearSSM.transition_grad_pairs",
    # the learner's API, and what only it calls
    "models.get_theta", "models.with_theta", "variational.get_phi", "variational.with_phi",
    "engine.AmortizedRunner.set_params", "variational.spectral_norm",
    "variational.spectral_project",
    "models.LinearGaussianSSM.theta_arrays", "models.LinearGaussianSSM.replace_theta",
    "models.ChaoticRNNModel.theta_arrays", "models.ChaoticRNNModel.replace_theta",
    "models.ResidualNonlinearSSM.theta_arrays", "models.ResidualNonlinearSSM.replace_theta",
    "layout.ParamLayout.view", "layout.ParamLayout.views", "layout.ParamLayout.pack",
    "mlp.MLPParams.pack", "mlp.MLPParams.unpack",
    # run only when a step raises (test_engine.py's TestFailedStep)
    "engine.AmortizedRunner.restore", "engine.ConjugateRunner.restore",
    # simulation, and what only it calls
    "models.simulate", "models.LinearGaussianSSM.sample_emission",
    "models.ChaoticRNNModel.sample_emission", "models.ResidualNonlinearSSM.sample_emission",
    "models.ChaoticRNNModel.d_y",
}


def public_code(modules) -> dict:
    """``{"module.name" or "module.Class.name": code object}`` of every public
    function, method and property defined in ``modules``."""
    found = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{short}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        found[f"{short}.{name}.{attr}"] = member.__code__
    return found


def run_streams() -> None:
    import numpy as np

    from streamvi import engine, mlp, models, oracle, variational as var

    d = 2
    rng = np.random.default_rng(0)
    model_classes = [
        models.LinearGaussianSSM(F=0.7 * np.eye(d), G=np.eye(d), q_var=0.1, r_var=0.25),
        models.ChaoticRNNModel(W=rng.standard_normal((d, d)) / d, delta=0.1, rho=1.0,
                               gamma=1.5, q_var=0.1),
        models.ResidualNonlinearSSM(f_net=mlp.init_mlp(rng, [d, 4, d], scale=0.5),
                                    g_net=mlp.init_mlp(rng, [d, 4, d], scale=0.5),
                                    q_diag=np.full(d, 0.1), r_diag=np.full(d, 0.25)),
    ]
    ys = rng.normal(size=(4, d))
    for model in model_classes:
        for method in ("full", "categorical", "accept_reject"):
            params = var.init_amortizer(rng, d, d, hidden=4, head_hidden=(5,), pot_hidden=(5,),
                                        scale=0.6)
            cfg = engine.EngineConfig(n_particles=8, method=method,
                                      clip_enabled=method == "accept_reject")
            state = engine.init_state(model, engine.AmortizedRunner(params), ys[0], cfg, rng)
            for y in ys[1:]:
                state, out = engine.step(state, y, model, cfg, rng)
            assert np.isfinite(out.elbo) and np.all(np.isfinite(out.grad_phi))
            assert np.all(np.isfinite(out.grad_theta))

    # the exact family: every particle carries the same h - log q, and the
    # variational posterior is the exact one, so the ELBO is the log-likelihood
    model = model_classes[0]
    filt = oracle.kalman_filter(model, ys)
    family = var.exact_conjugate_mode(model, filt)
    cfg = engine.EngineConfig(n_particles=8, compute_grads=False)
    state = engine.init_state(model, engine.ConjugateRunner(family), ys[0], cfg, rng)
    for y in ys[1:]:
        state, out = engine.step(state, y, model, cfg, rng)
    exact = oracle.exact_elbo(model, family, ys)
    assert abs(out.elbo - exact) <= 1e-9 * abs(exact), (out.elbo, exact)
    assert abs(exact - filt.loglik) <= 1e-9 * abs(exact), (exact, filt.loglik)


def main() -> None:
    import importlib
    import pkgutil
    import threading

    import streamvi

    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(streamvi.__path__, "streamvi.")]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_streams()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    public = public_code(modules)
    print(json.dumps({"public": sorted(public),
                      "entered": sorted(name for name, code in public.items()
                                        if code in entered)}))


def test_every_public_function_is_runtime_or_allowed():
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         timeout=300,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    public = set(report["public"])
    assert ALLOWED <= public, f"allowed names that do not exist: {sorted(ALLOWED - public)}"
    unreached = public - set(report["entered"]) - ALLOWED
    assert not unreached, (f"public names that no stream enters; move them to "
                           f"tests/reference.py or allow them: {sorted(unreached)}")


if __name__ == "__main__":
    main()
