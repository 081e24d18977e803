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
checks read as their right-hand side.  `MatchedPair.measure(phi, form)` adds
phi and the density form to a pair, giving a measure, so many phi can share
one pair.  `moment_match_all(meas)` checks the moments j <= 2k-2 of a measure.

Many (phi, form) draws on one pair are evaluated together:
`densities(pair, draws, x)` gives one column per draw and evaluates p_k and
p_{k-1} once per point, and `density(meas, x)` is its one-draw column.
`boundary_moments(pair, draws)` integrates moment 2k-1 of every draw in one
oracle pass, refining on the worst draw.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
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
    "MatchedMeasure",
    "densities",
    "density",
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


def pick_eval(phi: PickFunction, x):
    """phi(x) on real points; Im phi(x) >= Im gamma since every pole term
    contributes nonnegative imaginary part for Im z_r < 0."""
    x = np.asarray(x, dtype=float)
    out = phi.beta * x + complex(phi.gamma)
    for c_r, z_r in phi.terms:
        out = out - c_r / (x - complex(z_r))
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

    def measure(self, phi: PickFunction, form: str = "measure2") -> "MatchedMeasure":
        """This pair with phi and the density form."""
        _check_form(form)
        pair = {f.name: getattr(self, f.name) for f in fields(MatchedPair)}
        return MatchedMeasure(**pair, phi=phi, form=form)


@dataclass(frozen=True)
class MatchedMeasure(MatchedPair):
    """A matched pair with phi and the density form."""

    phi: PickFunction
    form: str  # "measure2": |phi p_k - p_{k-1}|^2;  "measure5": |p_k + phi p_{k-1}|^2


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


def densities(pair: MatchedPair, draws, x):
    """Densities of the (phi, form) draws on one pair; shape x.shape + (len(draws),).

    p_k and p_{k-1} are evaluated once per point for all draws.
    """
    x = np.asarray(x, dtype=float)
    pk, pkm1 = pair.p_k(x), pair.p_km1(x)
    out = np.empty(x.shape + (len(draws),))
    for d, (phi, form) in enumerate(draws):
        _check_form(form)
        ph = pick_eval(phi, x)
        if form == "measure2":
            denom = np.abs(ph * pk - pkm1) ** 2
        else:
            denom = np.abs(pk + ph * pkm1) ** 2
        out[..., d] = np.imag(ph) / np.pi / denom
    return out


def density(meas: MatchedMeasure, x):
    """Pointwise density; strictly positive on R.

    Im(phi - p_{k-1}/p_k) = Im phi > 0 away from the real zeros of p_k, and
    at those zeros the other factor is nonzero by interlacing, so neither
    denominator form can vanish.
    """
    return densities(meas, [(meas.phi, meas.form)], x)[..., 0]


def boundary_moments(pair: MatchedPair, draws, tol: float = 1e-8):
    """Moment 2k-1 of each (phi, form) draw on the pair; returns (lhs array, rhs).

    The improper integral need not converge at j = 2k-1, so each lhs is the
    fixed symmetric truncation to [-60, 60]; all draws share one adaptive
    pass that refines on the worst draw.  rhs is kappa_{k-1}/kappa_k times
    the pair's oracle moment mu_{2k-1}, the same for every draw.
    """
    j = 2 * pair.k - 1

    def f(x):
        return (np.asarray(x) ** j)[:, None] * densities(pair, draws, x)

    lhs, _ = oracle.integrate(oracle.IntegrandSpec(f, oracle.FiniteDirect(-60.0, 60.0)), tol=tol)
    return np.asarray(lhs), pair.kappa_ratio * pair.moments[j]


def moment_match_all(meas: MatchedMeasure, tol: float = 1e-8):
    """All matched moments j = 0..2k-2 in one adaptive pass; returns (lhs, rhs) arrays."""

    def f(x):
        return np.vander(x, 2 * meas.k - 1, increasing=True) * density(meas, x)[:, None]

    lhs = oracle.improper_integral(f, decay="RationalOrder2", tol=tol)
    return np.asarray(lhs), meas.kappa_ratio * np.asarray(meas.moments[: 2 * meas.k - 1])
