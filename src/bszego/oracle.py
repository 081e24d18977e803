"""Independent numerical integration.

Everything here is deliberately generic: a nested trapezoid rule for smooth
periodic integrands, adaptive 15-point Gauss panels with bisection refinement
for everything else, endpoint substitutions for the interval kinds that need
them, and series guards near removable singularities. No closed-form result
from the rest of the package is ever used on this side of a comparison.

After t = ((1-a) + (1+a) cos(theta))/2 the weights ((1-t)(a+t))^(+-1/2) dt
turn a smooth g(t) into a smooth, even, 2pi-periodic function of theta, and
for those the trapezoid rule on [0, pi] converges geometrically. Such
integrals take the trapezoid rule, doubled until two successive rules agree;
a sample that is not finite, or no agreement by _TRAP_MAX intervals, sends
them back to adaptive bisection. The plain dt measure (an |sin(theta)| kink),
finite intervals and infinite ranges always use bisection.

An evaluator call costs far more to start than per point, and most
integrals stop after a few refinement levels, so an integral's first call
holds every point of its first levels, up to _FIRST_CALL points: the nodes
of the nested trapezoid rules T_64 ... T_512, which share their nodes, or
the complete bisection tree down to 16 panels (31 panels). The levels are
then read from that table in turn, each with its own finiteness and
convergence checks, so the points of a level that is never reached are never
read; only the levels below the table call the evaluator again.

Below the first call, bisection runs one depth level at a time: both halves
of every panel still open at that depth are evaluated together, so an
evaluator is called once per level rather than once per panel. Each panel is
still accepted or split on its own, so the accepted panels are those a
depth-first refinement would accept, and they are summed in position order.
A panel's 15-point sum is an elementwise product summed over its own nodes,
so it does not depend on how many panels share the call.

Evaluators may be vector-valued: an evaluator mapping an array of points of
shape (npts,) to shape (npts,) or (npts, K) integrates K components in one
pass, refining on the worst component. No evaluator call on either path gets
more than _TRAP_CHUNK points, which bounds the (npts, K) arrays.

Bisection (and so improper_integral with decay "RationalOrder2") also takes
grouped evaluators, of shape (npts, G, K): G independent integrals of K
components each, run in lock-step on shared evaluator calls (as in Shampine,
"Vectorized adaptive quadrature in MATLAB", J. Comput. Appl. Math. 211,
2008). Each group keeps its own tolerance share, its own panel decisions on
its own worst component, and its own depth and panel limits, as QUADPACK's
QAG keeps them for one integral, so its accepted panels are those of a run
of that group alone; a panel is evaluated while any group still holds it.
The result is one outcome per group, (value, err_est) or a NoConvergence: a
group that does not converge stops being refined while the others finish.
The shape of the output selects the mode.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NoConvergence

__all__ = [
    "SingularityGuard",
    "ThetaSubstituted",
    "FiniteDirect",
    "IntegrandSpec",
    "integrate",
    "fourier_coeff",
    "improper_integral",
]

_GX, _GW = leggauss(15)
_MAX_DEPTH = 48
# Subintervals one bisection call may hold (QUADPACK's `limit`): the default
# sweep needs 26, Tier-1 12 021 and rules at the n + m <= 64 cap up to 59 002.
_MAX_PANELS = 2 ** 16
_TRAP_START = 64  # exact for cos(k theta), k < 128: any polynomial in t of degree < 128
_TRAP_MAX = 2 ** 17
_TRAP_CHUNK = 4096  # points per evaluator call on either path, bounding (npts, K) arrays
# Points of an integral's first evaluator call (no more than _TRAP_CHUNK): the nodes of
# T_64 ... T_512 (513), or the complete bisection tree down to 16 panels (31 panels, 465
# points).  A call costs far more to start than per point, so the refinement levels most
# integrals stop at share one.
_FIRST_CALL = 513
_FOURIER_POINTS = 4096  # uniform samples per fourier_coeff
_MAX_BLOCKS = 400  # blocks per side of an exponential-tail improper_integral


@dataclass(frozen=True)
class SingularityGuard:
    """Replace evaluator(x) by series(x) on |x - center| < radius."""

    center: float
    radius: float
    series: Callable


@dataclass(frozen=True)
class ThetaSubstituted:
    """Interval [-a, 1] with t = ((1-a) + (1+a) cos(theta))/2, theta in [0, pi].

    The integral computed is  int_{-a}^{1} g(t) * K(t) dt  with
    K = ((1-t)(a+t))^(weight_power/2); the substitution turns K dt into a
    smooth function of theta (weight_power -1 gives plain d(theta)).
    """

    a: float
    weight_power: int = -1


@dataclass(frozen=True)
class FiniteDirect:
    lo: float
    hi: float


@dataclass(frozen=True)
class IntegrandSpec:
    evaluator: Callable
    interval: object
    singularity_guards: Sequence[SingularityGuard] = field(default_factory=tuple)


def _guarded(evaluator, guards):
    if not guards:
        return evaluator

    def wrapped(x):
        x = np.asarray(x, dtype=float)
        out = None
        untouched = np.ones(x.shape, dtype=bool)
        for g in guards:
            near = np.abs(x - g.center) < g.radius
            if np.any(near):
                vals = np.asarray(g.series(x[near]))
                if out is None:
                    proto = np.zeros(x.shape + vals.shape[1:], dtype=vals.dtype)
                    out = proto
                out[near] = vals
                untouched &= ~near
        direct = np.asarray(evaluator(x[untouched]))
        if out is None:
            out = np.zeros(x.shape + direct.shape[1:], dtype=direct.dtype)
        out[untouched] = direct
        return out

    return wrapped


def _panels(f, lo, hi):
    """15-point Gauss values of f on the panels [lo[i], hi[i]]; shape (P,), (P, K) or (P, G, K).

    Consecutive panels share one evaluator call of at most _TRAP_CHUNK points,
    and only that call's points are ever tabulated.  Each panel's sum is an
    elementwise product summed over its own 15 nodes, so it does not depend
    on how many panels share the call (a matrix product would).
    """
    per = _TRAP_CHUNK // _GX.size
    sums = []
    for start in range(0, len(lo), per):
        mid = 0.5 * (lo[start:start + per] + hi[start:start + per])
        hw = 0.5 * (hi[start:start + per] - lo[start:start + per])
        block = mid[:, None] + hw[:, None] * _GX
        vals = np.asarray(f(block.ravel()))
        vals = vals.reshape(block.shape + vals.shape[1:])
        trail = (1,) * (vals.ndim - 2)
        panel = (vals * _GW.reshape(_GW.shape + trail)).sum(axis=1)
        sums.append(hw.reshape(hw.shape + trail) * panel)
    return np.concatenate(sums)


def _by_group(v):
    """Panel values (P,), (P, K) or (P, G, K) as (P, G, K): one group for an ungrouped f."""
    return v.reshape(v.shape[:1] + (1,) * (3 - v.ndim) + v.shape[1:])


def _worst(d):
    """d.max(axis=2) of a (P, G, K) table, bit for bit.  numpy reduces a short trailing
    axis one row at a time; past a few dozen rows the maximum over a transposed copy,
    K slabs compared elementwise, is several times faster.  K = 1 needs no reduction."""
    if d.shape[2] == 1:
        return d[:, :, 0]
    if d.shape[0] * d.shape[1] < 32:
        return d.max(axis=2)
    return np.ascontiguousarray(d.transpose(2, 0, 1)).max(axis=0)


def _halves(a, b):
    """Both halves of every panel [a[i], b[i]], as (lo, hi) in position order."""
    edges = np.array([a, 0.5 * (a + b), b])
    return edges[:2].T.ravel(), edges[1:].T.ravel()


def _adaptive(f, lo, hi, tol):
    """Globally adaptive bisection.

    For an evaluator of shape (npts,) or (npts, K) returns (value, err_est)
    and raises NoConvergence; for a grouped one, (npts, G, K), returns one
    outcome per group: (value, err_est), or the group's NoConvergence.

    A group's panels are accepted when bisecting changes their value by less
    than a quarter of their share of the group's budget tol * max(1, |coarse|),
    coarse being the group's one-panel value, and split otherwise; a panel at
    depth _MAX_DEPTH changed by more than its whole share ends the group with
    NoConvergence, and so does a partition past _MAX_PANELS subintervals.
    The first evaluator call holds the complete tree down to the level whose
    panels fit _FIRST_CALL points, and the first levels' halves are read from
    it.  Below it, refinement runs one depth level at a time: both halves of
    every panel some group still holds are evaluated in calls of at most
    _TRAP_CHUNK points, so the evaluator is called about once per level.
    Each group's accepted panels are those of a depth-first refinement of that
    group alone; their values and their refinement changes / 15 are summed in
    position order, so value and err_est agree with the depth-first sums to
    rounding and repeat exactly from run to run, whatever the first call holds.
    """
    width = hi - lo
    a, b = np.array([lo], dtype=float), np.array([hi], dtype=float)
    # the complete tree down to the level whose panels still fit _FIRST_CALL points, every
    # level in position order, from one evaluator call; level L starts at row 2^L - 1
    tree_lo, tree_hi = [a], [b]
    while _GX.size * (2 ** (len(tree_lo) + 1) - 1) <= _FIRST_CALL:
        half_lo, half_hi = _halves(tree_lo[-1], tree_hi[-1])
        tree_lo.append(half_lo)
        tree_hi.append(half_hi)
    tree = _panels(f, np.concatenate(tree_lo), np.concatenate(tree_hi))
    first = tree[:1]
    grouped = first.ndim == 3
    one = first.shape[2:] if grouped else first.shape[1:]  # one group's value

    def out(v):
        return v.reshape(one)[()]

    coarse = _by_group(first)
    groups = coarse.shape[1]
    share = tol * np.fmax(1.0, np.abs(coarse[0]).max(axis=1))  # a NaN coarse value gives tol
    live = True  # live[i, g]: group g still holds panel i (at first, every group every panel)
    failed = {}
    # accepted (panel, group) pairs as flat indices into the (panel, group) pairs of every
    # level in turn, with their values and refinement changes; sorted once at the end
    los, done_pair, done_val, done_diff = [], [], [], []
    seen = accepted = 0
    place = np.zeros(1, dtype=np.int64)  # the open panels' positions in their tree level
    for depth in range(_MAX_DEPTH + 1):
        half_lo, half_hi = _halves(a, b)
        kids = (2 * place[:, None] + np.arange(2)).ravel()
        if depth + 1 < len(tree_lo):  # the halves are tree level depth + 1
            halves = _by_group(tree[2 ** (depth + 1) - 1 + kids])
        else:
            halves = _by_group(_panels(f, half_lo, half_hi))
        fine = halves[0::2] + halves[1::2]
        diff = _worst(np.abs(fine - coarse))
        budget = share * np.maximum((b - a) / width, 1e-6)[:, None]
        if depth < _MAX_DEPTH:
            done = diff <= 0.25 * budget
        else:  # the last level accepts every panel
            done = np.ones(diff.shape, dtype=bool)
        if groups > 1:  # a single group holds every panel it has not accepted
            done &= live
        if depth == _MAX_DEPTH:  # ... and ends a group with a panel past its whole share
            missed = done & (diff > budget)
            for g in np.flatnonzero(missed.any(axis=0)):
                i = int(np.argmax(missed[:, g]))
                failed[g] = NoConvergence(
                    f"panel [{a[i]}, {b[i]}] not converged at depth {depth}",
                    best=out(fine[i, g]),
                    err_est=diff[i, g],
                )
        pair = done.ravel().nonzero()[0]
        los.append(a)
        done_pair.append(pair + seen)
        done_val.append(fine.reshape(-1, fine.shape[2])[pair])
        done_diff.append(diff.ravel()[pair])
        seen += done.size
        accepted += pair.size
        open_ = ~done
        if groups > 1:
            open_ &= live
        if accepted + 2 * len(a) > _MAX_PANELS:  # a group may be past its panel budget
            group = np.concatenate(done_pair) % groups
            counts = np.bincount(group, minlength=groups) + 2 * np.count_nonzero(open_, axis=0)
            for g in np.flatnonzero(counts > _MAX_PANELS):
                mine = group == g
                best = np.concatenate(done_val)[mine].sum(axis=0) + fine[open_[:, g], g].sum(axis=0)
                err = np.concatenate(done_diff)[mine].sum() / 15.0 + diff[open_[:, g], g].sum()
                failed[g] = NoConvergence(f"more than {_MAX_PANELS} panels at depth {depth}",
                                          best=out(best), err_est=err)
                open_[:, g] = False
        held = open_.any(axis=1) if groups > 1 else open_[:, 0]
        if not held.any():
            break
        split = np.repeat(held, 2)
        a, b, coarse, place = half_lo[split], half_hi[split], halves[split], kids[split]
        if groups > 1:
            live = np.repeat(open_[held], 2, axis=0)
    panel, group = np.divmod(np.concatenate(done_pair), groups)
    order = np.lexsort((np.concatenate(los)[panel], group))
    values = np.concatenate(done_val)[order]
    errs = np.concatenate(done_diff)[order] / 15.0
    outcomes, start = [], 0
    for g, count in enumerate(np.bincount(group, minlength=groups).tolist()):
        end = start + count
        outcomes.append(failed[g] if g in failed else (
            out(np.add.accumulate(values[start:end])[-1]), np.add.accumulate(errs[start:end])[-1]))
        start = end
    if grouped:
        return outcomes
    if isinstance(outcomes[0], NoConvergence):
        raise outcomes[0]
    return outcomes[0]


def _theta_integrand(f, a, p):
    """theta -> f(t) * ((1-t)(a+t))^(p/2) dt/dtheta on [0, pi]."""

    def g(theta):
        t = 0.5 * ((1.0 - a) + (1.0 + a) * np.cos(theta))
        t = np.clip(t, -a, 1.0)
        vals = np.asarray(f(t))
        if p == -1:
            return vals
        jac = (0.5 * (1.0 + a) * np.sin(theta)) ** (p + 1)
        if vals.ndim == 2:
            return vals * jac[:, None]
        return vals * jac

    return g


def _midpoints(n):
    """The n midpoints that T_2n adds to the nodes of T_n on [0, pi]."""
    return (np.arange(n) + 0.5) * (np.pi / n)


def _periodic(g, tol):
    """Trapezoid rule on [0, pi] for an even 2pi-periodic g; returns (value, err_est) or None.

    Starts at _TRAP_START intervals; each doubling adds only the new
    midpoints.  The nodes of every rule up to _FIRST_CALL points, T_64's and
    the midpoints of each doubling to T_512, come from one evaluator call
    in that order, and each doubling reads its midpoints from that table;
    later doublings call the evaluator for theirs.  Accepts when
    max|T_2N - T_N| <= tol * (1 + max|T_2N|) and returns T_2N with that
    difference as its error estimate.  None when a sample of a rule that is
    reached is not finite, or no doubling up to _TRAP_MAX intervals is
    accepted.
    """
    n = _TRAP_START
    nodes, top = [np.linspace(0.0, np.pi, n + 1)], n  # top: the finest rule in the table
    while 2 * top + 1 <= _FIRST_CALL:  # T_2top's nodes fit in the first call
        nodes.append(_midpoints(top))
        top *= 2
    table = np.asarray(g(np.concatenate(nodes)))
    vals = table[:n + 1]
    if not np.all(np.isfinite(vals)):
        return None
    total = vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1])
    coarse = total * (np.pi / n)
    while n < _TRAP_MAX:
        if n < top:
            chunks = [table[n + 1:2 * n + 1]]
        else:
            mids = _midpoints(n)
            chunks = (g(mids[start:start + _TRAP_CHUNK]) for start in range(0, n, _TRAP_CHUNK))
        for vals in chunks:
            vals = np.asarray(vals)
            if not np.all(np.isfinite(vals)):
                return None
            total = total + vals.sum(axis=0)
        n *= 2
        fine = total * (np.pi / n)
        diff = np.max(np.abs(np.atleast_1d(fine - coarse)))
        if diff <= tol * (1.0 + np.max(np.abs(np.atleast_1d(fine)))):
            return fine, float(diff)
        coarse = fine
    return None


def integrate(spec: IntegrandSpec, tol: float = 1e-10):
    """Integrate spec; returns (value, err_est).

    ThetaSubstituted integrals with weight_power -1 or +1 take the doubling
    trapezoid rule, whose err_est is the change of the last doubling; when a
    sample is not finite or the doublings reach _TRAP_MAX they fall back to
    adaptive bisection. Every other kind uses adaptive bisection, whose
    err_est is the sum of the accepted panels' refinement changes / 15.
    err_est <= tol * (1 + |value|) on success; NoConvergence carries the best
    estimate otherwise.
    """
    tol = max(tol, 1e-14)
    f = _guarded(spec.evaluator, spec.singularity_guards)
    iv = spec.interval
    if isinstance(iv, ThetaSubstituted):
        g = _theta_integrand(f, iv.a, iv.weight_power)
        found = _periodic(g, tol) if iv.weight_power in (-1, 1) else None
        value, err = found if found is not None else _adaptive(g, 0.0, np.pi, tol)
    elif isinstance(iv, FiniteDirect):
        value, err = _adaptive(f, iv.lo, iv.hi, tol)
    else:
        raise TypeError(f"unknown interval kind: {iv!r}")
    scale = 1.0 + np.max(np.abs(np.atleast_1d(value)))
    if err > tol * scale:
        raise NoConvergence("error estimate above tolerance", best=value, err_est=err)
    if np.ndim(value) == 0:
        return float(value), float(err)
    return value, float(err)


def fourier_coeff(g: Callable, harmonic: int, kind: str = "cos"):
    """Fourier coefficient of a 2pi-periodic evaluator by uniform sampling.

    kind "cos"/"sin" return the usual real coefficients (1/pi) int g cos/sin
    (mean value for harmonic 0); "exp" returns (1/2pi) int g e^{-i h theta}.
    The trapezoid rule on a uniform grid of _FOURIER_POINTS is spectrally
    accurate for smooth periodic integrands.
    """
    if harmonic < 0:
        raise ValueError("harmonic must be nonnegative")
    theta = 2.0 * np.pi * np.arange(_FOURIER_POINTS) / _FOURIER_POINTS
    vals = np.asarray(g(theta))
    if kind == "exp":
        return complex(np.mean(vals * np.exp(-1j * harmonic * theta)))
    if harmonic == 0:
        return float(np.mean(np.real(vals)))
    if kind == "cos":
        return float(2.0 * np.mean(np.real(vals * np.cos(harmonic * theta))))
    if kind == "sin":
        return float(2.0 * np.mean(np.real(vals * np.sin(harmonic * theta))))
    raise ValueError(f"unknown kind {kind!r}")


def improper_integral(
    evaluator: Callable,
    decay: str,
    tol: float = 1e-8,
    two_sided: bool = False,
    block: float = 8.0,
):
    """Integral over an infinite range; returns (value, err_est).

    "Exponential": integrate [0, block], extend block by block until three
    consecutive blocks contribute below tol * |estimate|, within _MAX_BLOCKS
    blocks (mirrored when two_sided); err_est is the sum of the blocks' error
    estimates. "RationalOrder2": substitute x = s/(1-s^2) and integrate the
    smooth image over (-1, 1) in one adaptive pass, err_est being its estimate;
    a grouped evaluator, of shape (npts, G, K), gets one outcome per group,
    (value, err_est) or the group's NoConvergence, as from _adaptive.
    """
    tol = max(tol, 1e-14)
    if decay == "Exponential":
        def one_side(sign):
            total = err = 0.0
            quiet = 0
            for k in range(_MAX_BLOCKS):
                a = k * block
                b = a + block
                if sign < 0:
                    a, b = -b, -a
                contrib, contrib_err = _adaptive(evaluator, a, b, tol * 0.1)
                total += contrib
                err += contrib_err
                if abs(contrib) < tol * max(1.0, abs(total)) * 0.25:
                    quiet += 1
                    if quiet >= 3:
                        return total, err
                else:
                    quiet = 0
            raise NoConvergence("exponential-tail truncation not reached", best=total, err_est=err)

        total, err = one_side(+1)
        if two_sided:
            back, back_err = one_side(-1)
            total, err = total + back, err + back_err
        return total, err
    if decay == "RationalOrder2":
        def g(s):
            x = s / (1.0 - s * s)
            jac = (1.0 + s * s) / (1.0 - s * s) ** 2
            vals = np.asarray(evaluator(x))
            return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - 1))

        return _adaptive(g, -1.0, 1.0, tol)
    raise ValueError(f"unknown decay class {decay!r}")
