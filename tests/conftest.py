"""Shared test helpers."""

import numpy as np
from scipy.linalg import expm

from nongauss.gaussian import GaussianState, symplectic_form


def random_symplectic(n_modes, rng, scale=0.4):
    """Random symplectic matrix exp(Omega H) with H symmetric."""
    h = rng.normal(scale=scale, size=(2 * n_modes, 2 * n_modes))
    h = 0.5 * (h + h.T)
    return expm(symplectic_form(n_modes) @ h)


def random_gaussian_state(n_modes, rng, max_thermal=1.5):
    """Random physical Gaussian state S D S^T with thermal diagonal D."""
    s = random_symplectic(n_modes, rng)
    mu = 1.0 + 2.0 * max_thermal * rng.random(n_modes)
    cov = s @ np.diag(np.repeat(mu, 2)) @ s.T
    mean = rng.normal(scale=1.0, size=2 * n_modes)
    return GaussianState(n_modes, mean, 0.5 * (cov + cov.T))


def count_eigensolves(monkeypatch):
    """Names of the numpy eigensolvers called from now on, in call order."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def counted(*args, _solve=solve, _name=name, **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
