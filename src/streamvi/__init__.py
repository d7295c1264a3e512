"""streamvi: online variational inference for state-space models.

The package provides, bottom up:

- ``gaussian``: natural-parameter Gaussian algebra (the currency of the
  variational family);
- ``layout`` / ``mlp``: flat parameter-vector layouts, and small dense
  networks with hand-rolled backward passes;
- ``models``: generative state-space models, one class each holding the
  maths that differs between them, and the batched log-density, sampling
  and theta-gradient functions written once over those classes;
- ``variational``: the amortized backward-factorized variational family;
- ``gradients``: the phi-gradients of the variational marginals,
  batched over particles;
- ``engine``: particle clouds, self-normalized importance weights, and
  the per-step ELBO/gradient estimators;
- ``oracle``: the Kalman filter and the exact ELBO of a conjugate family
  for the linear-Gaussian case.

The package holds the runtime and needs only numpy.  The references that
the tests check it against live in ``tests/reference.py``: a reverse-mode
tape with the tape-backed phi-gradients of single log-densities, a
finite-difference verifier, and the one-point forms of the Gaussian
algebra, the model densities and theta-gradients and the variational
family, with the Kalman smoother and a dense joint-Gaussian oracle.
"""

__version__ = "0.1.0"
