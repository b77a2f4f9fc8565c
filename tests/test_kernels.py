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


def _manual(nodal, wv):
    return float((nodal @ wv).mean())


def test_fisher_matches_manual():
    h, gx, gv, hess, wv, pih, gpi, fac = _data(3)
    w = 1.0 / h
    ix, iv, im = kernels.fisher(w, gx, gv, wv)
    manual_ix = float(((w * (gx * gx).sum(axis=0)) @ wv).mean())
    assert ix == pytest.approx(manual_ix, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_weighted_fisher_matches_manual(p):
    h, gx, gv, hess, wv, pih, gpi, fac = _data(4)
    got = kernels.weighted_fisher(h**(p - 2.0) * fac, gv, wv)
    manual = _manual(h**(p - 2.0) * fac * (gv * gv).sum(axis=0), wv)
    assert got == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_cross_dissipation_matches_manual(p):
    h, gx, gv, hess, wv, pih, gpi, fac = _data(5)
    got = kernels.cross_dissipation(h**(p - 2.0), gx, gpi, pih, wv, p)
    pi = pih[:, None]
    diff = pi**(p - 2.0) * gpi[:, :, None] - h**(p - 2.0) * gx
    manual = _manual((diff * diff).sum(axis=0) * pi**(2.0 - p), wv)
    assert got == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_quartic_matches_manual(p):
    h, gx, gv, hess, wv, pih, gpi, fac = _data(6)
    got = kernels.quartic(h**(p - 2.0), h, gv, gx, wv)
    manual = _manual(h**(p - 4.0) * (gv * gv).sum(axis=0) * (gx * gx).sum(axis=0), wv)
    assert got == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_hessian_norm_matches_manual(p):
    h, gx, gv, hess, wv, pih, gpi, fac = _data(7)
    got = kernels.hessian_norm(h**(p - 2.0), h, hess, gv, gx, wv, p)
    acc = np.zeros_like(h)
    for i in range(2):
        for j in range(2):
            t = h**(p - 2.0) * hess[i, j] + (p - 2.0) * h**(p - 3.0) * gv[i] * gx[j]
            acc += t * t
    manual = _manual(acc * h**(2.0 - p), wv)
    assert got == pytest.approx(manual, rel=1e-12)
