"""Exact CLT moments for polynomial f, from the residue at z = infinity.

For polynomial f and an atomic spectrum every contour integral of the lab
is a residue at infinity, read off the Laurent series of the companion
transform in ``u = 1/z``.  The series follows from the fixed point
``s = -u / (1 - u y sum_k w_k t_k / (1 + t_k s))`` by iteration in exact
``fractions.Fraction`` arithmetic (float atoms, weights and ratios convert
exactly), one order per sweep.  With ``V_k = s / (1 + t_k s)`` and
``U_k = t_k V_k``:

    mu        = -[u^1] (f * I3 / (1 - I2)^2),   I_j = y sum_k w_k t_k^2 V_k^j
    sigma     = 2 sum_{p,q} p q c_p c_q [u1^p u2^q] (-log(1 - a)),
                a = y sum_k w_k U_k(u1) U_k(u2)
    centering = p_dim * m_j,   m_j = -[u^(j+1)] s / y   (j >= 1)

The log has no singularity on z1 = z2, because ``1 - a = (z1 - z2) s1 s2 /
(s1 - s2)``, so the double residue is the plain series coefficient.  The
oracle shares no code with the contour engine.
"""

from fractions import Fraction

import pytest

from conftest import BATTERY
from lsslab.clt_moments import compute_moments
from lsslab.spectral_model import TestFunction
from lsslab.stieltjes import lss_centering


def _mul(a, b):
    n = len(a)
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _inv(a):
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def _companion_series(t, w, y, order):
    """Coefficients of s_under in u = 1/z, through u^order."""
    one = [Fraction(1)] + [Fraction(0)] * order
    s = [Fraction(0), Fraction(-1)] + [Fraction(0)] * (order - 1)
    for _ in range(order):
        g = [Fraction(0)] * (order + 1)
        for tk, wk in zip(t, w):
            term = _inv([o + tk * c for o, c in zip(one, s)])
            g = [gi + wk * tk * ti for gi, ti in zip(g, term)]
        denom = [o - y * c for o, c in zip(one, [Fraction(0)] + g[:-1])]  # 1 - u y g
        s = [-c for c in [Fraction(0)] + _inv(denom)[:-1]]  # -u / denom
    return s


def exact_moments(spectrum, y, coeffs):
    """(mu, sigma, primary-law moments) exactly, for f = sum_p c_p x^p."""
    t = [Fraction(float(x)) for x in spectrum.eigenvalues]
    w = [Fraction(float(x)) for x in spectrum.weights]
    c = [Fraction(float(x)) for x in coeffs]
    d = len(c) - 1
    order = d + 1
    s = _companion_series(t, w, y, order)
    one = [Fraction(1)] + [Fraction(0)] * order
    vs = [_mul(s, _inv([o + tk * v for o, v in zip(one, s)])) for tk in t]  # s / (1 + t s)
    us = [[tk * v for v in vk] for tk, vk in zip(t, vs)]
    i2 = [Fraction(0)] * (order + 1)
    i3 = [Fraction(0)] * (order + 1)
    for tk, wk, vk in zip(t, w, vs):
        sq = _mul(vk, vk)
        i2 = [a + y * wk * tk * tk * b for a, b in zip(i2, sq)]
        i3 = [a + y * wk * tk * tk * b for a, b in zip(i3, _mul(sq, vk))]
    one_minus = [o - v for o, v in zip(one, i2)]
    ratio = _mul(i3, _inv(_mul(one_minus, one_minus)))
    mu = -sum(cp * ratio[1 + p] for p, cp in enumerate(c))
    # a and its powers as (d+1) x (d+1) coefficient grids in u1, u2
    a = [[sum(y * wk * uk[i] * uk[j] for wk, uk in zip(w, us)) for j in range(d + 1)]
         for i in range(d + 1)]
    power, log = a, [[Fraction(0)] * (d + 1) for _ in range(d + 1)]
    for n in range(1, d + 1):
        log = [[lv + pv / n for lv, pv in zip(lr, pr)] for lr, pr in zip(log, power)]
        power = [[sum(power[i1][j1] * a[i - i1][j - j1]
                      for i1 in range(i + 1) for j1 in range(j + 1))
                  for j in range(d + 1)] for i in range(d + 1)]
    sigma = 2 * sum(p * q * c[p] * c[q] * log[p][q]
                    for p in range(1, d + 1) for q in range(1, d + 1))
    primary = [-s[j + 1] / y for j in range(order)]
    return mu, sigma, primary


class TestOracle:
    def test_closed_forms(self):
        # mu(x^2) = y and sigma(x^2) = 4y(2 + 5y + 2y^2) on the identity
        for y in (Fraction(1, 2), Fraction(2)):
            mu, sigma, moments = exact_moments(BATTERY["identity"], y, [0, 0, 1])
            assert (mu, sigma) == (y, 4 * y * (2 + 5 * y + 2 * y * y))
            assert moments[1:3] == [1, 1 + y]

    def test_recorded_exact_values(self):
        # identity x^3 at y = 1/2, five-atom x^2 at y = 2
        mu, sigma, _ = exact_moments(BATTERY["identity"], Fraction(1, 2), [0, 0, 0, 1])
        assert (mu, sigma) == (Fraction(9, 4), Fraction(1425, 16))
        # the five weights 0.2 are floats, so compare through them
        mu, sigma, _ = exact_moments(BATTERY["five_atom"], Fraction(2), [0, 0, 1])
        assert float(mu) == pytest.approx(22 / 25, rel=1e-15)
        assert float(sigma) == pytest.approx(100224 / 3125, rel=1e-15)


@pytest.mark.parametrize("name", ["identity", "with_zero", "two_atom", "five_atom"])
@pytest.mark.parametrize("y", [Fraction(1, 4), Fraction(2)], ids=["y1/4", "y2"])
@pytest.mark.parametrize("degree", [1, 3, 11])
def test_contour_moments_match_the_residue(name, y, degree):
    sp = BATTERY[name]
    coeffs = [0.0] * degree + [1.0]
    mu, sigma, moments = exact_moments(sp, y, coeffs)
    got = compute_moments(TestFunction.polynomial(coeffs), sp, float(y), "RG")
    assert abs(got.mu - float(mu)) <= 1e-9 * max(1.0, abs(float(mu)))
    assert got.sigma == pytest.approx(float(sigma), rel=1e-9)
    p = 64
    centering = lss_centering(TestFunction.polynomial(coeffs), p, got.s_under)
    assert centering == pytest.approx(p * float(moments[degree]), rel=1e-9)
