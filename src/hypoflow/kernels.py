"""Quadrature kernels for the entropy/Fisher functionals.

Every reduction here is a weighted sum over the (x, v) lattice of a
pointwise expression in the density and its gradients, vectorized in
numpy. A density h of shape (..., nx_total, nv_total) stacks states on its
leading axes, with gradients of shape (dim, ...) of h's shape and velocity
averages of shape h.shape[:-1]; each reduction returns a float for one
state and one value per member for a stack. Each weighted reduction takes
the weight w = h^(p-2) that `functionals.report_basis` computes once.
"""

from __future__ import annotations

import numpy as np

# Name of the array library behind the kernels; run environments record it.
BACKEND = "numpy"


def _quadrature(nodal, wv):
    """Integral of a pointwise field (..., nx_total, nv_total): the x-mean
    of its weighted velocity sums, per stack member."""
    per_x = nodal @ wv
    total = per_x.sum(axis=-1) / per_x.shape[-1]
    return float(total) if total.ndim == 0 else total


def entropy_variable(u, p: float):
    """(u^(p-1) - 1)/(p-1), and log u at p = 1, as expm1((p-1) log u)/(p-1),
    which stays accurate to round-off as p -> 1."""
    out = np.log(u)
    if p != 1.0:
        out *= p - 1.0
        np.expm1(out, out=out)
        out /= p - 1.0
    return out


def convex_entropy_density(u, p: float):
    """(u^p - 1 - p(u-1))/(p(p-1)), u log u - u + 1 at p = 1, as (u E - (u-1))/p
    with E the entropy variable. It has the integral of (u^p - u)/(p(p-1))
    under unit mass but is pointwise nonnegative, and u - 1 is exact near
    u = 1, so near-equilibrium round-off neither flips signs nor cancels."""
    out = entropy_variable(u, p)
    out *= u
    out -= u - 1.0
    out /= p
    return out


def entropy(h, wv, p: float):
    """Quadrature of the convex entropy integrand of h."""
    return _quadrature(convex_entropy_density(h, p), wv)


def entropy_rate(h, g, wv, p: float):
    """Quadrature of E(h) g, E the entropy variable: the derivative of
    `entropy` along a tangent g of h."""
    return _quadrature(entropy_variable(h, p) * g, wv)


def _weighted_dot(w, a, b):
    """w sum_i a_i b_i over the leading (gradient) axis, the bits of
    w * (a * b).sum(axis=0), built in one array."""
    out = a[0] * b[0]
    for i in range(1, a.shape[0]):
        out += a[i] * b[i]
    out *= w
    return out


def fisher_form(w, ax, av, bx, bv, wv):
    """The bilinear Fisher form B(w; a, b) of two pairs of x- and
    v-gradients a = (ax, av) and b = (bx, bv): the quadratures of w ax.bx,
    w av.bv and w ax.bv."""
    return tuple(_quadrature(_weighted_dot(w, a, b), wv)
                 for a, b in ((ax, bx), (av, bv), (ax, bv)))


def fisher(w, gx, gv, wv):
    """Weighted squares and cross term of the two gradients: the diagonal
    B(w; g, g) of `fisher_form`."""
    return fisher_form(w, gx, gv, gx, gv, wv)


def weighted_fisher(w, g, wv):
    """Quadrature of w |g|^2 for a pointwise weight field w."""
    g2 = (g * g).sum(axis=0)
    return _quadrature(w * g2, wv)


def cross_dissipation(w, gx, gpi, pih, wv, p: float):
    """| (pi h)^(p-2) grad(pi h) - h^(p-2) grad h |^2 (pi h)^(2-p); at p = 1
    the relative spatial Fisher information of h against its velocity
    average."""
    acc = np.zeros_like(w)
    wpi = pih**(p - 2.0)
    for i in range(gx.shape[0]):
        diff = wpi[..., None] * gpi[i][..., None] - w * gx[i]
        acc += diff * diff
    return _quadrature(acc * pih[..., None]**(2.0 - p), wv)


def quartic(w, h, ga, gb, wv):
    """Quadrature of h^(p-4) |ga|^2 |gb|^2, with h^(p-4) = w/(h h)."""
    ga2 = (ga * ga).sum(axis=0)
    gb2 = (gb * gb).sum(axis=0)
    return _quadrature(w / (h * h) * ga2 * gb2, wv)


def hessian_norm(w, h, hess, ga, gb, wv, p: float):
    """Frobenius norm^2 of h^(p-2) hess + (p-2) h^(p-3) ga (x) gb,
    weighted by h^(2-p): the squared second derivative of the entropy
    variable, expanded by the chain rule, with h^(p-3) = w/h and
    h^(2-p) = 1/w."""
    d = ga.shape[0]
    w2 = (p - 2.0) * (w / h)
    acc = np.zeros_like(w)
    for i in range(d):
        for j in range(d):
            t = w * hess[i, j] + w2 * ga[i] * gb[j]
            acc += t * t
    return _quadrature(acc / w, wv)
