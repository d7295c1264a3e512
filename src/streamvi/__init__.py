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
- ``gradients``: the phi-gradients of the variational marginals,
  batched over particles;
- ``engine``: particle clouds, self-normalized importance weights, and
  the per-step ELBO/gradient estimators;
- ``oracle``: Kalman filter/smoother references for the linear-Gaussian
  case.

The package needs only numpy.  The references that the tests check it
against, a reverse-mode tape with the tape-backed phi-gradients of single
log-densities and a finite-difference verifier, live in
``tests/reference.py``.
"""

__version__ = "0.1.0"
