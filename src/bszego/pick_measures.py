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
builds the draws' padded pole table once, not at every evaluator call.
`moment_match_all(pair, draws)` integrates the moments j <= 2k-2 of every
draw in one oracle pass, each draw its own integral with its own error
control, so one draw that does not converge fails alone.
`boundary_moments(pair, draws)` integrates moment 2k-1 of every draw in one
oracle pass, refining on the worst draw.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import oracle
from .errors import DegreeThreshold
from .quadrature import oracle_moments
from .szego_polys import OrthoPoly, explicit_family, szego_orthonormal
from .weight_models import (
    Family,
    MeasureFactor,
    WeightSpec,
    build_szego_factor,
    expected_rho_degree,
)
from .poly_core import ChebSeries

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
    """Pick functions with their arrays built once: beta, gamma, and the pole terms
    padded with c_r = 0, z_r = -i to the most any of them has, c and z of shape
    (width, count)."""

    def __new__(cls, phis):
        self = super().__new__(cls, phis)
        shape = (max((len(phi.terms) for phi in self), default=0), len(self))
        self.beta = np.array([phi.beta for phi in self])
        self.gamma = np.array([complex(phi.gamma) for phi in self])
        self.c, self.z = np.zeros(shape), np.full(shape, -1j)
        for d, phi in enumerate(self):
            for r, (c_r, z_r) in enumerate(phi.terms):
                self.c[r, d], self.z[r, d] = c_r, z_r
        return self


def pick_eval(phis, x):
    """phi(x) of each Pick function in phis on real points; shape x.shape + (len(phis),).

    All phis are evaluated at once, their pole terms padded with c_r = 0.
    Im phi(x) >= Im gamma since every pole term contributes nonnegative
    imaginary part for Im z_r < 0.
    """
    phis = phis if isinstance(phis, _Phis) else _Phis(phis)
    x = np.asarray(x, dtype=float)[..., None]
    out = phis.beta * x + phis.gamma
    for c_r, z_r in zip(phis.c, phis.z):
        out = out - c_r / (x - z_r)
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
    """(phi, form) draws with their `_Phis` and measure2 mask built once, so an oracle
    pass over many evaluator calls does not rebuild them at each."""

    def __new__(cls, draws):
        self = super().__new__(cls, draws)
        for _, form in self:
            _check_form(form)
        self.phis = _Phis(phi for phi, _ in self)
        self.measure2 = np.array([form == "measure2" for _, form in self])
        return self


def densities(pair: MatchedPair, draws, x):
    """Densities of the (phi, form) draws on one pair; shape x.shape + (len(draws),).

    p_k and p_{k-1} are evaluated once per point, and phi of every draw at
    once.  Each column is strictly positive on R: Im(phi - p_{k-1}/p_k) =
    Im phi > 0 away from the real zeros of p_k, and at those zeros the other
    factor is nonzero by interlacing, so neither denominator form can vanish.
    """
    draws = draws if isinstance(draws, _Draws) else _Draws(draws)
    ph = pick_eval(draws.phis, x)
    # |phi p_k - p_{k-1}|^2 (measure2) and |p_k + phi p_{k-1}|^2 = |phi p_{k-1} - (-p_k)|^2
    # (measure5) as one |phi u - v|^2
    x = np.asarray(x, dtype=float)[..., None]
    pk, pkm1 = pair.p_k(x), pair.p_km1(x)
    u = np.where(draws.measure2, pk, pkm1)
    v = np.where(draws.measure2, pkm1, -pk)
    return np.imag(ph) / np.pi / np.abs(ph * u - v) ** 2


def boundary_moments(pair: MatchedPair, draws, tol: float = 1e-8):
    """Moment 2k-1 of each (phi, form) draw on the pair; returns (lhs array, rhs).

    The improper integral need not converge at j = 2k-1, so each lhs is the
    fixed symmetric truncation to [-60, 60]; all draws share one adaptive
    pass that refines on the worst draw.  rhs is kappa_{k-1}/kappa_k times
    the pair's oracle moment mu_{2k-1}, the same for every draw.
    """
    j = 2 * pair.k - 1
    draws = _Draws(draws)

    def f(x):
        return (np.asarray(x) ** j)[:, None] * densities(pair, draws, x)

    lhs, _ = oracle.integrate(oracle.IntegrandSpec(f, oracle.FiniteDirect(-60.0, 60.0)), tol=tol)
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

    def f(x):
        return np.vander(x, count, increasing=True)[:, None, :] * densities(pair, draws, x)[..., None]

    rows = oracle.improper_integral(f, decay="RationalOrder2", tol=tol)
    return rows, pair.kappa_ratio * np.asarray(pair.moments[:count])
