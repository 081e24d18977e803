"""Absolutely continuous measures on R built from rational Pick functions.

A rational Pick function phi(x) = beta x + gamma - sum c_r/(x - z_r) with
beta >= 0, Im gamma > 0, c_r >= 0, Im z_r < 0 maps the closed upper half
plane into the open upper half plane; combined with two consecutive
orthonormal polynomials it yields a density on R whose moments up to 2k-2
reproduce (kappa_{k-1}/kappa_k times) the moments of the original measure
on [-a, 1].  Moment 2k-1 is generically not matched: that boundary is part
of the statement and is probed statistically in the tests.

The construction splits in two.  `matched_pair(spec)` builds the pair,
everything that does not depend on phi: k, the polynomials p_k and p_{k-1},
kappa_{k-1}/kappa_k and the base moments mu_0..mu_{2k-1}, which the moment
checks read as their right-hand side.  A measure is a pair with one draw
(phi, form), phi a Pick function and form the density form, `measure2` or
`measure5`, so many draws share one pair.

Many (phi, form) draws on one pair are evaluated together:
`densities(pair, draws, x)` gives one column per draw, with p_k and p_{k-1}
evaluated once per point and phi of all draws as one array; an oracle pass
builds the draws' padded pole table once, not at every evaluator call.  phi
and the densities are computed in real arithmetic, in place: one reciprocal
per pole term gives Re phi and Im phi (`_pick_parts`), and each density is
Im phi / (pi ((Re phi u - v)^2 + (Im phi u)^2)) for the form's polynomials
(u, v), so no complex number is formed; `pick_eval` joins the same two parts.
`moment_match_all(pair, draws)` integrates the moments j <= 2k-2 of every
draw in one oracle pass, each draw its own integral with its own error
control, so one draw that does not converge fails alone.
`boundary_moments(pair, draws)` integrates moment 2k-1 of every draw in one
oracle pass, refining on the worst draw.  That moment is truncated to
[-60, 60] and integrated on the map x = s/(1-s^2) that the j <= 2k-2
moments take over R, over [-s*, s*] with x(s*) = 60.  The pass's budget is
absolute, so the boundary cells ask for tol 1e-10, which keeps small draws
within about 1e-9 relative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import oracle
from .errors import DegreeThreshold
from .poly_core import ChebSeries, power_table
from .quadrature import oracle_moments
from .szego_polys import OrthoPoly, explicit_family, szego_orthonormal
from .weight_models import (
    Family,
    MeasureFactor,
    WeightSpec,
    build_szego_factor,
    expected_rho_degree,
)

__all__ = [
    "PickFunction",
    "pick_eval",
    "MatchedPair",
    "matched_pair",
    "densities",
    "boundary_moments",
    "moment_match_all",
]

_FORMS = ("measure2", "measure5")  # |phi p_k - p_{k-1}|^2 and |p_k + phi p_{k-1}|^2
# the boundary moments' truncation [-_CUT, _CUT], and its preimage s* under
# x = s/(1-s^2), the root of _CUT s^2 + s - _CUT written without cancellation
_CUT = 60.0
_S_CUT = 2.0 * _CUT / (1.0 + math.sqrt(1.0 + 4.0 * _CUT ** 2))


@dataclass(frozen=True)
class PickFunction:
    """beta x + gamma - sum c_r / (x - z_r)."""

    beta: float
    gamma: complex
    terms: Tuple[Tuple[float, complex], ...] = ()

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if not complex(self.gamma).imag > 0:
            raise ValueError("gamma must have positive imaginary part")
        for c_r, z_r in self.terms:
            if c_r < 0:
                raise ValueError("pole coefficients must be nonnegative")
            if not complex(z_r).imag < 0:
                raise ValueError("poles must lie in the lower half plane")


class _Phis(tuple):
    """Pick functions with their arrays built once, in real arithmetic: beta, Re gamma and
    Im gamma of shape (count,), and the pole terms z_r = p_r - i q_r padded with c_r = 0,
    z_r = -i to the most any of them has, c, p, q and q^2 of shape (width, count)."""

    def __new__(cls, phis):
        self = super().__new__(cls, phis)
        shape = (max((len(phi.terms) for phi in self), default=0), len(self))
        self.beta = np.array([phi.beta for phi in self])
        self.gamma_re = np.array([complex(phi.gamma).real for phi in self])
        self.gamma_im = np.array([complex(phi.gamma).imag for phi in self])
        self.c, self.p, self.q = np.zeros(shape), np.zeros(shape), np.ones(shape)
        for d, phi in enumerate(self):
            for r, (c_r, z_r) in enumerate(phi.terms):
                z_r = complex(z_r)
                self.c[r, d], self.p[r, d], self.q[r, d] = c_r, z_r.real, -z_r.imag
        self.q2 = self.q * self.q
        return self


def _pick_parts(phis: _Phis, x):
    """(Re phi, Im phi) of each Pick function on real points, each of shape
    x.shape + (len(phis),), in real arithmetic.

    With d = x - p_r, each pole term takes one reciprocal w = c_r/(d^2 + q_r^2):
    -c_r/(x - z_r) = -w d + i w q_r, so Re phi = beta x + Re gamma - sum w d and
    Im phi = Im gamma + sum w q_r, term after term in place.  A padding term adds
    w = 0: Im phi keeps its bits, and Re phi at most the sign of a zero.
    """
    x = np.asarray(x, dtype=float)[..., None]
    re = phis.beta * x
    re += phis.gamma_re
    im = np.empty_like(re)
    im[...] = phis.gamma_im
    d, w = np.empty_like(re), np.empty_like(re)
    for c_r, p_r, q_r, q2_r in zip(phis.c, phis.p, phis.q, phis.q2):
        np.subtract(x, p_r, out=d)
        np.multiply(d, d, out=w)
        w += q2_r
        np.divide(c_r, w, out=w)
        d *= w
        re -= d
        w *= q_r
        im += w
    return re, im


def pick_eval(phis, x):
    """phi(x) of each Pick function in phis on real points; shape x.shape + (len(phis),).

    All phis are evaluated at once, their pole terms padded with c_r = 0, from the
    real and imaginary parts of `_pick_parts`.  Im phi(x) >= Im gamma since every
    pole term contributes nonnegative imaginary part c_r q_r/|x - z_r|^2 for
    Im z_r = -q_r < 0.
    """
    re, im = _pick_parts(phis if isinstance(phis, _Phis) else _Phis(phis), x)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


@dataclass(frozen=True)
class MatchedPair:
    """The phi-independent part of a matched measure on the base weight."""

    k: int
    p_k: OrthoPoly
    p_km1: OrthoPoly
    kappa_ratio: float  # kappa_{k-1} / kappa_k
    base_spec: WeightSpec
    moments: Tuple[float, ...]  # mu_0..mu_{2k-1} of the base weight


def matched_pair(spec: WeightSpec) -> MatchedPair:
    """Build the polynomial pair for the cos-plus-cosh weight with odd n, m.

    p_k is the explicit degree-(m+n)/2 polynomial; p_{k-1} comes from the
    spectral-factor recipe when its degree threshold allows, and from direct
    normalization of the constant when k - 1 = 0 (where the recipe's
    threshold l < 2k is not available).  The base moments mu_0..mu_{2k-1}
    come from one oracle pass.
    """
    if spec.family is not Family.CosPlusCosh or spec.n % 2 == 0 or spec.m % 2 == 0:
        raise ValueError("matched measures are built on the odd/odd cos-plus-cosh weight")
    wspec = spec.with_measure(MeasureFactor.InvSqrtBoth)
    k = (spec.n + spec.m) // 2
    p_k = explicit_family(wspec)
    l = expected_rho_degree(wspec)
    moments = tuple(float(mu) for mu in oracle_moments(wspec, 2 * k - 1))
    if l < 2 * (k - 1):
        factor = build_szego_factor(wspec)
        p_km1 = szego_orthonormal(factor, k - 1, MeasureFactor.InvSqrtBoth)
    elif k - 1 == 0:
        c0 = 1.0 / np.sqrt(moments[0])
        p_km1 = OrthoPoly(poly=ChebSeries([c0], wspec.a), weight=wspec)
    else:
        raise DegreeThreshold(
            f"p_(k-1) not constructible: l = {l} >= 2(k-1) = {2 * (k - 1)}"
        )
    return MatchedPair(
        k=k,
        p_k=p_k,
        p_km1=p_km1,
        kappa_ratio=p_km1.leading_coeff / p_k.leading_coeff,
        base_spec=wspec,
        moments=moments,
    )


def _check_form(form):
    if form not in _FORMS:
        raise ValueError("form must be 'measure2' or 'measure5'")


class _Draws(tuple):
    """(phi, form) draws with their `_Phis` and form columns built once, so an oracle
    pass over many evaluator calls does not rebuild them at each."""

    def __new__(cls, draws):
        self = super().__new__(cls, draws)
        for _, form in self:
            _check_form(form)
        self.phis = _Phis(phi for phi, _ in self)
        # the columns of (p_k, p_{k-1}, -p_k) that are u and v of |phi u - v|^2
        self.u = np.array([0 if form == "measure2" else 1 for _, form in self], dtype=np.intp)
        self.v = self.u + 1
        return self


def densities(pair: MatchedPair, draws, x):
    """Densities of the (phi, form) draws on one pair; shape x.shape + (len(draws),).

    p_k and p_{k-1} are evaluated once per point, and phi of every draw at
    once, in real arithmetic (`_pick_parts`).  Both forms are |phi u - v|^2:
    (u, v) = (p_k, p_{k-1}) for measure2, and (p_{k-1}, -p_k) for measure5,
    since |p_k + phi p_{k-1}| = |phi p_{k-1} - (-p_k)|.  The density is
    Im phi / (pi ((Re phi u - v)^2 + (Im phi u)^2)), built in place on the
    buffers of phi.  Each column is strictly positive on R: Im(phi - p_{k-1}/p_k) =
    Im phi > 0 away from the real zeros of p_k, and at those zeros the other
    factor is nonzero by interlacing, so neither denominator form can vanish.
    The result is a new array, which a caller may scale in place.
    """
    draws = draws if isinstance(draws, _Draws) else _Draws(draws)
    re, im = _pick_parts(draws.phis, x)
    x = np.asarray(x, dtype=float)[..., None]
    pk = pair.p_k(x)
    polys = np.concatenate([pk, pair.p_km1(x), -pk], axis=-1)
    u, v = polys[..., draws.u], polys[..., draws.v]
    re *= u
    re -= v
    re *= re
    u *= im
    u *= u
    re += u
    re *= np.pi
    im /= re
    return im


def boundary_moments(pair: MatchedPair, draws, tol: float = 1e-10):
    """Moment 2k-1 of each (phi, form) draw on the pair; returns (lhs array, rhs).

    The improper integral need not converge at j = 2k-1, so each lhs is the
    fixed symmetric truncation to [-60, 60].  It is integrated as its image
    under the oracle's map x = s/(1-s^2) (`oracle.RationalImage`) over
    [-s*, s*], s* = 120/(1 + sqrt(14401)), where x(s*) = 60 to within 2 ulp
    of s*.  On the map the densities' peaks near the origin keep about their
    own width; over [-60, 60] in x the first panels are 7.5 wide.  All draws
    share one adaptive pass that refines on the worst draw.  Its budget is
    absolute, tol * max(1, |coarse|), so a draw far below the largest keeps
    fewer digits: tol 1e-10, the default and what the boundary cells pass,
    keeps every draw within 1e-9 relative on the pairs they run and at
    (7, 7); 1e-8 leaves draws 1e-6 off at (5, 5).  rhs is
    kappa_{k-1}/kappa_k times the pair's oracle moment mu_{2k-1}, the same
    for every draw.
    """
    j = 2 * pair.k - 1
    draws = _Draws(draws)

    def f(x):
        dens = densities(pair, draws, x)
        dens *= (np.asarray(x) ** j)[:, None]
        return dens

    spec = oracle.IntegrandSpec(oracle.RationalImage(f), oracle.FiniteDirect(-_S_CUT, _S_CUT))
    lhs, _ = oracle.integrate(spec, tol=tol)
    return np.asarray(lhs), pair.kappa_ratio * pair.moments[j]


def moment_match_all(pair: MatchedPair, draws, tol: float = 1e-8):
    """Moments j = 0..2k-2 of each (phi, form) draw on the pair; returns (rows, rhs).

    All draws share one oracle pass over R, one group per draw: each draw is
    its own integral with its own error control.  rows[d] is draw d's
    outcome, (lhs, err_est) with lhs of shape (2k-1,), or the NoConvergence
    of its integral.  rhs is kappa_{k-1}/kappa_k times the pair's oracle
    moments mu_0..mu_{2k-2}, the same for every draw.
    """
    count = 2 * pair.k - 1
    draws = _Draws(draws)

    def f(x):  # node-major: the (npts, G, K) view of a (G, K, npts) buffer
        table = np.empty((len(draws), count, len(x)))
        np.multiply(densities(pair, draws, x).T[:, None, :], power_table(x, count).T, out=table)
        return table.transpose(2, 0, 1)

    rows = oracle.improper_integral(f, tol=tol, two_sided=True)
    return rows, pair.kappa_ratio * np.asarray(pair.moments[:count])
