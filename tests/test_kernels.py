"""Quadrature kernels against manual evaluations."""

import numpy as np
import pytest

from hypoflow import kernels


def _data(seed=0, nx=24, nv=12, d=2):
    rng = np.random.default_rng(seed)
    h = np.exp(0.3 * rng.standard_normal((nx, nv)))
    gx = rng.standard_normal((d, nx, nv))
    gv = rng.standard_normal((d, nx, nv))
    hess = rng.standard_normal((d, d, nx, nv))
    wv = rng.random(nv) + 0.1
    wv /= wv.sum()
    pih = h @ wv
    gpi = rng.standard_normal((d, nx))
    fac = rng.random((nx, nv))
    return h, gx, gv, hess, wv, pih, gpi, fac


def test_active_backend_reported():
    assert kernels.BACKEND == "numpy"


def test_fisher_matches_manual():
    h, gx, gv, hess, wv, pih, gpi, fac = _data(3)
    ix, iv, im = kernels.fisher(h, gx, gv, wv, -1.0)
    w = 1.0 / h
    manual_ix = float(((w * (gx * gx).sum(axis=0)) @ wv).mean())
    assert ix == pytest.approx(manual_ix, rel=1e-12)
