"""streamvi: online variational inference for state-space models.

The package provides, bottom up:

- ``gaussian``: natural-parameter Gaussian algebra (the currency of the
  variational family);
- ``layout`` / ``mlp``: flat parameter-vector layouts, and small dense
  networks with hand-rolled backward passes;
- ``models``: generative state-space models, one class each holding the
  maths that differs between them, and the log-density, sampling and
  theta-gradient functions written once over those classes;
- ``variational``: the amortized backward-factorized variational family;
- ``tape`` / ``gradients``: reverse-mode differentiation of the scalar
  quantities the estimators need, plus a finite-difference verifier;
- ``engine``: particle clouds, self-normalized importance weights, and
  the per-step ELBO/gradient estimators;
- ``oracle``: Kalman filter/smoother references for the linear-Gaussian
  case.
"""

__version__ = "0.1.0"
