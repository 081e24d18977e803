"""Independent numerical integration.

Everything here is deliberately generic: a nested trapezoid rule for smooth
periodic integrands, adaptive 15-point Gauss panels with bisection refinement
for everything else, and endpoint substitutions for the interval kinds and
infinite ranges that need them. No closed-form result from the rest of the
package is ever used on this side of a comparison.

After t = ((1-a) + (1+a) cos(theta))/2 the weights ((1-t)(a+t))^(+-1/2) dt
turn a smooth g(t) into a smooth, even, 2pi-periodic function of theta, and
for those the trapezoid rule on [0, pi] converges geometrically (Trefethen
and Weideman, "The exponentially convergent trapezoidal rule", SIAM Rev. 56,
2014). Such integrals take the trapezoid rule, doubled until two successive
rules agree. So does the plain dt measure, dt = (1+a)/2 sin(theta) d(theta):
when g carries the factor sqrt((1-t)(a+t)), as every plain-dt integrand of
the suites does, the substituted integrand is smooth and even too. These
three weights, ThetaSubstituted's weight powers -1, +1 and 0, are the only
ones it takes. A level whose node sum is not finite (it holds a sample that
is not finite, or finite samples that overflow the sum), or no agreement by
_TRAP_MAX intervals, sends a theta integral back to adaptive bisection. So a
plain-dt integrand that is smooth in t (an |sin(theta)| kink, on which the
trapezoid converges like 1/N^2) costs up to _TRAP_MAX trapezoid points
first, the same bound as the other weights. Finite intervals and infinite
ranges always use bisection.

An evaluator call costs far more to start than per point, and most
integrals stop after a few refinement levels, so an integral's first call
holds every point of its first levels, up to _FIRST_CALL points: the nodes
j pi/512, j = 0 ... 512, of T_512, which hold those of every coarser rule
T_64 ... T_256 as a strided slice, or the complete bisection tree down to 16
panels (31 panels). The levels are then checked in turn, each for a node sum
that is not finite and for convergence; the node sums of the trapezoid
levels a first call holds are all taken at once. Only the levels below the
first call call the evaluator again.

Below the first call, bisection runs one depth level at a time: both halves
of every panel still open at that depth are evaluated together, so an
evaluator is called once per level rather than once per panel. Each panel is
still accepted or split on its own, so the accepted panels are those a
depth-first refinement would accept, and they are summed in position order.

Evaluators may be vector-valued: an evaluator mapping an array of points of
shape (npts,) to shape (npts,) or (npts, K) integrates K components in one
pass, refining on the worst component. No evaluator call on either path gets
more than _TRAP_CHUNK points, which bounds the (npts, K) arrays. An evaluator
returns a new array per call, and the oracle may scale it in place: on the
theta path the Jacobian multiplies the evaluator's own table (_scaled), so a
call allocates one (npts, K) table. An int table, a read-only view or one
value per call is multiplied out of place.

Every sum over nodes is taken in an order that the table's shape fixes, so
it depends only on the values: not on the memory layout of the evaluator's
table, and not on how many levels or panels share a call. A trapezoid
level's samples are summed by numpy's pairwise sum along the last, node
axis of a node-major table, or of a strided slice of it that holds one
level (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
sec. 4.2): the table is made node-major once per call (_node_major), which
reads a node-contiguous table, such as the (npts, K) transpose view of K
node rows, in place, and copies a C-ordered one, whose sum over axis 0
numpy would take one short row at a time. A panel's 15 Gauss terms go the
other way: the weight multiply writes them into a C-ordered (P, 15, ...)
buffer, whatever the evaluator's layout, and numpy sums its middle axis
column by column, with no reduction call per row of 15.

An integral over (0, inf) or over R takes bisection on its image under
x = s/(1-s^2) over (0, 1) or (-1, 1) (improper_integral): the variable
transformation of Takahasi and Mori ("Double exponential formulas for
numerical integration", Publ. RIMS 9, 1974) with an algebraic map, which
maps the range onto a finite interval instead of truncating it. The map and
its Jacobian (1+s^2)/(1-s^2)^2 are written once, in RationalImage, which
callers also use for a truncation [-L, L]: its image is [-s*, s*] with
s* = 2L/(1 + sqrt(1 + 4L^2)), and the map keeps features near the origin at
their own width.

Bisection (and so improper_integral) also takes grouped evaluators, of
shape (npts, G, K): G independent integrals of K components each, run in
lock-step on shared evaluator calls (as in Shampine, "Vectorized adaptive
quadrature in MATLAB", J. Comput. Appl. Math. 211, 2008). Each group keeps
its own tolerance share, its own panel decisions on its own worst
component, and its own depth and panel limits, as QUADPACK's QAG keeps them
for one integral, so its accepted panels are those of a run of that group
alone; a panel is evaluated while any group still holds it. The result is
one outcome per group, (value, err_est) or a NoConvergence: a group that
does not converge stops being refined while the others finish. The shape
of the output selects the mode. fourier_coeff samples g once and reads
every requested harmonic from one FFT of the samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NoConvergence

__all__ = [
    "ThetaSubstituted",
    "FiniteDirect",
    "IntegrandSpec",
    "integrate",
    "fourier_coeff",
    "improper_integral",
    "RationalImage",
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
# T_512 (513), which hold those of T_64 ... T_256, or the complete bisection tree down to
# 16 panels (31 panels, 465 points).  A call costs far more to start than per point, so
# the refinement levels most integrals stop at share one.
_FIRST_CALL = 513
_FOURIER_POINTS = 4096  # uniform samples per fourier_coeff


def _midpoints(n, start=0, stop=None):
    """The n midpoints that T_2n adds to the nodes of T_n on [0, pi], or those numbered
    start up to stop."""
    return (np.arange(start, n if stop is None else stop) + 0.5) * (np.pi / n)


# T_512's nodes j pi/512, built once, read-only: T_N's are its stride-(512/N) slice, and
# the midpoints that T_2N adds the slice of that stride from 256/N
_THETA = np.linspace(0.0, np.pi, 513)
_THETA.flags.writeable = False


@dataclass(frozen=True)
class ThetaSubstituted:
    """Interval [-a, 1] with t = ((1-a) + (1+a) cos(theta))/2, theta in [0, pi].

    The integral computed is  int_{-a}^{1} g(t) * K(t) dt  with
    K = ((1-t)(a+t))^(weight_power/2), weight_power -1, 0 or +1; the
    substitution turns K dt into a smooth function of theta (weight_power -1
    gives plain d(theta)).
    """

    a: float
    weight_power: int = -1

    def __post_init__(self):
        if not (np.isfinite(self.a) and -self.a < 1.0):
            raise ValueError(f"ThetaSubstituted needs a finite a with -a < 1, not {self.a!r}")
        if self.weight_power not in (-1, 0, 1):
            raise ValueError(f"ThetaSubstituted takes weight_power -1, 0 or +1, "
                             f"not {self.weight_power!r}")


@dataclass(frozen=True)
class FiniteDirect:
    """Interval [lo, hi] with finite ends, integrated as it stands."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"FiniteDirect needs finite ends, not [{self.lo!r}, {self.hi!r}]")


@dataclass(frozen=True)
class IntegrandSpec:
    evaluator: Callable
    interval: object


def _node_major(vals):
    """Evaluator values with the node axis moved last and made contiguous: (npts, K) as
    (K, npts).  Node-contiguous values, such as the transpose view of a node-major
    buffer, are not copied."""
    vals = np.asarray(vals)
    return np.ascontiguousarray(vals.transpose(*range(1, vals.ndim), 0))


def _panels(f, lo, hi):
    """15-point Gauss values of f on the panels [lo[i], hi[i]]; shape (P,), (P, K) or (P, G, K).

    Consecutive panels share one evaluator call of at most _TRAP_CHUNK points,
    and only that call's points are ever tabulated.  Each panel's sum is an
    elementwise product, written into a C-ordered buffer, summed over its own
    15 nodes, so it depends only on those values: not on how many panels share
    the call (a matrix product would), nor on the memory layout of the
    evaluator's table.
    """
    per = _TRAP_CHUNK // _GX.size
    sums = []
    for start in range(0, len(lo), per):
        mid = 0.5 * (lo[start:start + per] + hi[start:start + per])
        hw = 0.5 * (hi[start:start + per] - lo[start:start + per])
        nodes = mid[:, None] + hw[:, None] * _GX
        vals = np.asarray(f(nodes.ravel()))
        vals = vals.reshape(nodes.shape + vals.shape[1:])
        trail = (1,) * (vals.ndim - 2)
        terms = np.empty(vals.shape, np.result_type(vals, _GW))  # C-ordered, whatever vals' layout
        np.multiply(vals, _GW.reshape(_GW.shape + trail), out=terms)
        sums.append(hw.reshape(hw.shape + trail) * terms.sum(axis=1))
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


def _tree_levels():
    """Levels of the complete bisection tree that an interval's first call holds: the
    most whose 2^L - 1 panels fit _FIRST_CALL points, and at least the one panel."""
    return max(1, (_FIRST_CALL // _GX.size + 1).bit_length() - 1)


def _adaptive(f, lo, hi, tol):
    """Globally adaptive bisection of f over [lo, hi].

    For an evaluator of shape (npts,) or (npts, K) returns (value, err_est)
    and raises NoConvergence; for a grouped one, (npts, G, K), returns one
    outcome per group: (value, err_est), or the group's NoConvergence.

    Every group is its own integral.  Its panels are accepted when bisecting
    changes their value by less than a quarter of their share of its budget
    tol * max(1, |coarse|), coarse being its one-panel value, and the share
    being the panel's fraction of the interval's width (1 for the one panel
    of a zero-width interval, whose integral is 0); a panel splits
    otherwise.  A panel at depth _MAX_DEPTH changed by more than its whole
    share ends that integral with NoConvergence, and so does a partition of
    the interval past _MAX_PANELS subintervals.
    The first evaluator call holds the complete tree down to the level whose
    panels fit _FIRST_CALL points, and the first levels' halves are read from
    it.  Below it, refinement runs one depth level at a time: both halves of
    every panel some group still holds are evaluated in calls of at most
    _TRAP_CHUNK points, so the evaluator is called about once per level.
    Each group's accepted panels are those of a depth-first refinement of
    that group alone; they are kept per level as (left end, group, value,
    refinement change), and their values and changes / 15 are summed in
    position order, so value and err_est agree with the depth-first sums to
    rounding, whatever the first call holds.  One group takes the same path
    as many.
    """
    a, b = np.array([lo], dtype=float), np.array([hi], dtype=float)
    width = b[0] - a[0]
    # the complete tree down to the level whose panels still fit _FIRST_CALL points, level
    # by level, from one evaluator call; level L starts at row 2^L - 1
    tree_lo, tree_hi = [a], [b]
    for _ in range(_tree_levels() - 1):
        half_lo, half_hi = _halves(tree_lo[-1], tree_hi[-1])
        tree_lo.append(half_lo)
        tree_hi.append(half_hi)
    tree = _panels(f, np.concatenate(tree_lo), np.concatenate(tree_hi))
    grouped = tree.ndim == 3
    one = tree.shape[2:] if grouped else tree.shape[1:]  # one group's value

    def out(v):
        return v.reshape(one)[()]

    coarse = _by_group(tree[:1])
    groups = coarse.shape[1]
    share = tol * np.fmax(1.0, np.abs(coarse[0]).max(axis=1))  # (G,); a NaN coarse value gives tol
    live = np.ones((1, groups), dtype=bool)  # live[p, g]: group g still holds panel p
    failed = {}  # NoConvergence by group
    accepted, kept = [], 0  # per level, (left ends, groups, values, changes); how many in all
    place = np.zeros(1, dtype=int)  # the open panels' positions in their tree level

    def joined():
        return [np.concatenate(column) for column in zip(*accepted)]

    for depth in range(_MAX_DEPTH + 1):
        half_lo, half_hi = _halves(a, b)
        kids = (2 * place[:, None] + np.arange(2)).ravel()
        if depth + 1 < len(tree_lo):  # the halves are tree level depth + 1
            halves = _by_group(tree[2 ** (depth + 1) - 1 + kids])
        else:
            halves = _by_group(_panels(f, half_lo, half_hi))
        fine = halves[0::2] + halves[1::2]
        diff = _worst(np.abs(fine - coarse))
        # a panel's fraction of the width; a zero-width interval's one panel holds all of it
        frac = np.divide(b - a, width, out=np.ones_like(a), where=width != 0.0)
        budget = share * np.maximum(frac, 1e-6)[:, None]
        # a group accepts the panels it holds that bisecting hardly changed; the last level
        # accepts all of them, and ends a group with a panel past its whole share
        done = live & (diff <= 0.25 * budget) if depth < _MAX_DEPTH else live
        if depth == _MAX_DEPTH:
            for p, g in zip(*np.nonzero(done & (diff > budget))):  # its first such panel first
                if g not in failed:
                    failed[g] = NoConvergence(
                        f"panel [{a[p]}, {b[p]}] not converged at depth {depth}",
                        best=out(fine[p, g]),
                        err_est=diff[p, g],
                    )
        p, g = np.nonzero(done)
        accepted.append((a[p], g, fine[p, g], diff[done]))
        kept += p.size
        open_ = live & ~done
        if kept + 2 * len(a) > _MAX_PANELS:  # a group may be past its panel budget
            _, slot, values, changes = joined()
            counts = np.bincount(slot, minlength=groups) + 2 * open_.sum(axis=0)
            for g in np.flatnonzero(counts > _MAX_PANELS).tolist():
                mine, rows = slot == g, open_[:, g]
                best = values[mine].sum(axis=0) + fine[rows, g].sum(axis=0)
                err = changes[mine].sum() / 15.0 + diff[rows, g].sum()
                failed[g] = NoConvergence(f"more than {_MAX_PANELS} panels at depth {depth}",
                                          best=out(best), err_est=err)
                open_[rows, g] = False
        held = open_.any(axis=1)
        if not held.any():
            break
        split = np.repeat(held, 2)
        a, b, coarse, place = half_lo[split], half_hi[split], halves[split], kids[split]
        live = np.repeat(open_[held], 2, axis=0)
    los, slot, values, changes = joined()
    order = np.lexsort((los, slot))
    values, errs = values[order], changes[order] / 15.0
    outcomes, start = [], 0
    for g, count in enumerate(np.bincount(slot, minlength=groups).tolist()):
        end = start + count
        outcomes.append(failed[g] if g in failed else (
            out(np.add.accumulate(values[start:end])[-1]), np.add.accumulate(errs[start:end])[-1]))
        start = end
    if grouped:
        return outcomes
    if isinstance(outcomes[0], NoConvergence):
        raise outcomes[0]
    return outcomes[0]


def _scaled(vals, w):
    """vals * w, where w holds one factor per node of vals' first axis.  In place, which
    keeps vals' layout and allocates nothing, when vals is a writeable float64 array with
    w's node count and w is float64; out of place otherwise (an int table, a read-only
    view, one value per call), as numpy broadcasts them.  Both give the same bits."""
    vals, w = np.asarray(vals), np.asarray(w)
    w = w.reshape(w.shape + (1,) * (vals.ndim - 1))
    if (vals.dtype == w.dtype == np.float64 and vals.flags.writeable
            and vals.shape[:1] == w.shape[:1]):
        return np.multiply(vals, w, out=vals)
    return vals * w


def _theta_integrand(f, a, p):
    """theta -> f(t) * ((1-t)(a+t))^(p/2) dt/dtheta on [0, pi]; the Jacobian scales f's
    table in place (_scaled)."""

    def g(theta):
        t = 0.5 * ((1.0 - a) + (1.0 + a) * np.cos(theta))
        vals = f(np.minimum(np.maximum(t, -a), 1.0))  # np.clip, at half the cost
        if p == -1:
            return np.asarray(vals)
        return _scaled(vals, (0.5 * (1.0 + a) * np.sin(theta)) ** (p + 1))

    return g


def _chunk_sums(g, n):
    """The node sums of the n midpoints that T_2n adds, one evaluator call per chunk of
    _TRAP_CHUNK of them, so no 2^16-point node array is built."""
    for start in range(0, n, _TRAP_CHUNK):
        vals = _node_major(g(_midpoints(n, start, min(n, start + _TRAP_CHUNK))))
        with np.errstate(over="ignore", invalid="ignore"):  # see _periodic
            level = vals.sum(axis=-1)
        yield level


def _periodic(g, tol):
    """Trapezoid rule on [0, pi] for an even 2pi-periodic g; returns (value, err_est) or None.

    Starts at _TRAP_START intervals; each doubling adds only the new
    midpoints.  The first evaluator call takes the nodes of the finest rule
    in _THETA that fits _FIRST_CALL points, T_512's, and T_64's nodes and each
    doubling's midpoints are strided slices of them, whose node sums are all
    taken at once; later doublings call the evaluator a chunk at a time
    (_chunk_sums).  Accepts when max|T_2N - T_N| <= tol * (1 + max|T_2N|) and
    returns T_2N with that difference as its error estimate.  None when the
    node sum of a level that is reached is not finite, or no doubling up to
    _TRAP_MAX intervals is accepted.  A sum is finite only if every sample in
    it is, so no table of finiteness flags is built; finite samples whose sum
    overflows end in bisection as well.  Overflow and inf - inf in a node sum
    are such handled cases and warn nothing; the evaluator is always called
    outside that silence, so its own warnings reach the caller.
    """
    top = n = _TRAP_START
    while 2 * top + 1 <= min(_FIRST_CALL, _THETA.size):
        top *= 2
    table = _node_major(g(_THETA[::(_THETA.size - 1) // top]))
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [table[..., ::top // n].sum(axis=-1)]
        step = top // n  # T_N's nodes are the stride-(top/N) slice
        while step > 1:
            sums.append(table[..., step // 2::step].sum(axis=-1))
            step //= 2
    if not np.all(np.isfinite(sums[0])):
        return None
    total = sums[0] - 0.5 * (table[..., 0] + table[..., -1])
    coarse = total * (np.pi / n)
    table_levels = iter(sums[1:])
    while n < _TRAP_MAX:
        for level in [next(table_levels)] if n < top else _chunk_sums(g, n):
            if not np.all(np.isfinite(level)):
                return None
            total = total + level
        n *= 2
        fine = total * (np.pi / n)
        diff = np.max(np.abs(np.atleast_1d(fine - coarse)))
        if diff <= tol * (1.0 + np.max(np.abs(np.atleast_1d(fine)))):
            return fine, float(diff)
        coarse = fine
    return None


def _floored_tol(tol) -> float:
    """tol, at least 1e-14; ValueError for a NaN or infinite tol, before any evaluator call:
    a NaN would run to the panel budget and an infinite one stop with no error control."""
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    return max(tol, 1e-14)


def integrate(spec: IntegrandSpec, tol: float = 1e-10):
    """Integrate spec; returns (value, err_est).

    ThetaSubstituted integrals, of weight_power -1, 0 or +1, take the
    doubling trapezoid rule of _periodic, whose err_est is the change of the
    last doubling; when a reached level's node sum is not finite or no
    doubling settles by _TRAP_MAX intervals they fall back to adaptive
    bisection.  The rule converges geometrically when the substituted
    integrand is smooth: for weight_power -1 or +1 when g is smooth, for 0
    when g carries sqrt((1-t)(a+t)).  FiniteDirect intervals use adaptive
    bisection, whose err_est is the sum of the accepted panels' refinement
    changes / 15.
    err_est <= tol * (1 + |value|) on success; NoConvergence carries the best
    estimate otherwise.  A NaN or infinite tol raises ValueError.
    """
    tol = _floored_tol(tol)
    f, iv = spec.evaluator, spec.interval
    if isinstance(iv, ThetaSubstituted):
        g = _theta_integrand(f, iv.a, iv.weight_power)
        found = _periodic(g, tol)
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


def fourier_coeff(g: Callable, harmonic, kind: str = "cos"):
    """Fourier coefficients of a 2pi-periodic evaluator by uniform sampling.

    kind "cos"/"sin" return the usual real coefficients (1/pi) int Re(g) cos/sin
    (the mean value for harmonic 0); "exp" returns (1/2pi) int g e^{-i h theta}.
    The trapezoid rule on a uniform grid of _FOURIER_POINTS is spectrally
    accurate for smooth periodic integrands.  harmonic is an integer in
    [0, _FOURIER_POINTS / 2), whose coefficient is returned as a float or
    complex, or a sequence of them, returned as an array: g is sampled once,
    and every harmonic is read from one FFT of the samples.
    """
    if kind not in ("cos", "sin", "exp"):
        raise ValueError(f"unknown kind {kind!r}")
    h = np.asarray(harmonic)
    if h.dtype.kind not in "iu" or np.any(h < 0) or np.any(h >= _FOURIER_POINTS // 2):
        raise ValueError(f"harmonics must be integers in [0, {_FOURIER_POINTS // 2}), "
                         f"not {harmonic!r}")
    theta = 2.0 * np.pi * np.arange(_FOURIER_POINTS) / _FOURIER_POINTS
    vals = np.asarray(g(theta))
    if kind == "exp":
        coeff = np.fft.fft(vals)[h] / _FOURIER_POINTS
        return complex(coeff) if h.ndim == 0 else coeff
    spectrum = np.fft.rfft(np.real(vals))[h] / _FOURIER_POINTS
    # (2/N) sum Re(g) cos(h theta) = 2 Re F_h and (2/N) sum Re(g) sin(h theta) = -2 Im F_h
    part = spectrum.real if kind == "cos" else -spectrum.imag
    coeff = np.where(h == 0, spectrum.real, 2.0 * part)  # harmonic 0: the mean
    return float(coeff) if h.ndim == 0 else coeff


def _rational_map(s):
    """x = s/(1-s^2), which maps (-1, 1) onto R, and its Jacobian dx/ds = (1+s^2)/(1-s^2)^2."""
    q = 1.0 - s * s
    return s / q, (1.0 + s * s) / q ** 2


@dataclass(frozen=True)
class RationalImage:
    """The evaluator of s -> evaluator(x) dx/ds under x = s/(1-s^2).

    Its integral over (-1, 1) is the evaluator's over R, and over [-s, s] the
    evaluator's over [-x(s), x(s)].  A function that falls off like 1/x^2 or
    faster becomes bounded on (-1, 1); one with peaks near the origin keeps them
    near s = 0, at about their own width, where bisection over a wide x range
    starts from panels much wider than they are.
    """

    evaluator: Callable

    def __call__(self, s):
        x, jac = _rational_map(s)
        vals = np.asarray(self.evaluator(x))
        return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - 1))


def improper_integral(evaluator: Callable, tol: float = 1e-8, two_sided: bool = False):
    """Integral of the evaluator over (0, inf), or over R when two_sided; returns
    (value, err_est).

    Substitutes x = s/(1-s^2) (RationalImage) and integrates the image over
    (0, 1), or (-1, 1), in one adaptive pass, err_est being its estimate.  The
    Gauss nodes never touch a panel's end, so a one-sided call evaluates no
    x <= 0.  A grouped evaluator, of shape (npts, G, K), gets one outcome per
    group, (value, err_est) or the group's NoConvergence, as from _adaptive.  A NaN or
    infinite tol raises ValueError.
    """
    return _adaptive(RationalImage(evaluator), -1.0 if two_sided else 0.0, 1.0,
                     _floored_tol(tol))
