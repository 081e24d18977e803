"""Independent numerical integration.

Everything here is deliberately generic: a nested trapezoid rule for smooth
periodic integrands, adaptive 15-point Gauss panels with bisection refinement
for everything else, endpoint substitutions for the interval kinds that need
them, and series guards near removable singularities. No closed-form result
from the rest of the package is ever used on this side of a comparison.

After t = ((1-a) + (1+a) cos(theta))/2 the weights ((1-t)(a+t))^(+-1/2) dt
turn a smooth g(t) into a smooth, even, 2pi-periodic function of theta, and
for those the trapezoid rule on [0, pi] converges geometrically (Trefethen
and Weideman, "The exponentially convergent trapezoidal rule", SIAM Rev. 56,
2014). Such integrals take the trapezoid rule, doubled until two successive
rules agree. So does the plain dt measure, dt = (1+a)/2 sin(theta) d(theta):
when g carries the factor sqrt((1-t)(a+t)), as every plain-dt integrand of
the suites does, the substituted integrand is smooth and even too. A sample
that is not finite, or no agreement by _TRAP_MAX intervals, sends a theta
integral back to adaptive bisection. So a plain-dt integrand that is smooth
in t (an |sin(theta)| kink, on which the trapezoid converges like 1/N^2)
costs up to _TRAP_MAX trapezoid points first, the same bound as the other
weights. Finite intervals and infinite ranges always use bisection.

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

Every sum over nodes is taken in an order that the table's shape fixes, so
it depends only on the values: not on the memory layout of the evaluator's
table, and not on how many levels or panels share a call. A trapezoid
level's samples are summed by numpy's pairwise sum along a contiguous node
axis (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
sec. 4.2): the table is made node-major once per call (_node_major), which
reads a node-contiguous table, such as the (npts, K) transpose view of K
node rows, in place, and copies a C-ordered one, whose sum over axis 0
numpy would take one short row at a time. A panel's 15 Gauss terms go the
other way: the weight multiply writes them into a C-ordered (P, 15, ...)
buffer, whatever the evaluator's layout, and numpy sums its middle axis
column by column, with no reduction call per row of 15.

An algebraically decaying integral over R takes bisection on its image
under x = s/(1-s^2) over (-1, 1) (improper_integral with decay
"RationalOrder2"). The map and its Jacobian (1+s^2)/(1-s^2)^2 are written
once, in RationalImage, which callers also use for a truncation [-L, L]:
its image is [-s*, s*] with s* = 2L/(1 + sqrt(1 + 4L^2)), and the map keeps
features near the origin at their own width.

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

Bisection runs independent intervals in lock-step the same way: given
arrays of I interval ends, it refines every interval's panels on shared
evaluator calls, and each interval keeps its own width, tolerance share,
depth and panel limits and its own outcome, equal bit for bit to that of a
run over the interval alone. An exponential-tail improper_integral takes
its blocks 8 at a time, as many first-call trees (8 x 465 points) as fit
one call of _TRAP_CHUNK points, and reads their outcomes in block order, so
the blocks past the truncation point are computed but never counted, and
their failures never raised. fourier_coeff samples g once and reads every
requested harmonic from one FFT of the samples.
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
# T_64 ... T_512 (513), or the complete bisection tree down to 16 panels (31 panels, 465
# points).  A call costs far more to start than per point, so the refinement levels most
# integrals stop at share one.
_FIRST_CALL = 513
_FOURIER_POINTS = 4096  # uniform samples per fourier_coeff
_MAX_BLOCKS = 400  # blocks per side of an exponential-tail improper_integral


def _midpoints(n):
    """The n midpoints that T_2n adds to the nodes of T_n on [0, pi]."""
    return (np.arange(n) + 0.5) * (np.pi / n)


def _table_top():
    """The finest trapezoid rule whose nodes an integral's first call holds: T_64's, or
    each doubling's while its 2N + 1 nodes fit _FIRST_CALL points."""
    top = _TRAP_START
    while 2 * top + 1 <= _FIRST_CALL:
        top *= 2
    return top


def _theta_table():
    """The first call's theta nodes in table order: T_64's, then the midpoints that each
    doubling to T_top adds, so the first N + 1 of them are T_N's nodes for every rule N
    in the table."""
    n, top = _TRAP_START, _table_top()
    nodes = [np.linspace(0.0, np.pi, n + 1)]
    while n < top:
        nodes.append(_midpoints(n))
        n *= 2
    theta = np.concatenate(nodes)
    theta.flags.writeable = False
    return theta


_THETA = _theta_table()  # built once, read-only


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

    def __post_init__(self):
        if not (np.isfinite(self.a) and -self.a < 1.0):
            raise ValueError(f"ThetaSubstituted needs a finite a with -a < 1, not {self.a!r}")


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
        block = mid[:, None] + hw[:, None] * _GX
        vals = np.asarray(f(block.ravel()))
        vals = vals.reshape(block.shape + vals.shape[1:])
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
    """Globally adaptive bisection of f over [lo, hi], or over each [lo[i], hi[i]].

    For scalar lo and hi and an evaluator of shape (npts,) or (npts, K)
    returns (value, err_est) and raises NoConvergence; for a grouped one,
    (npts, G, K), returns one outcome per group: (value, err_est), or the
    group's NoConvergence.  For 1-D arrays lo and hi of I intervals it
    returns a list of I entries, entry i being what the scalar call on
    [lo[i], hi[i]] returns, with a NoConvergence returned instead of raised.

    Every (interval, group) is its own integral.  Its panels are accepted
    when bisecting changes their value by less than a quarter of their share
    of its budget tol * max(1, |coarse|), coarse being its one-panel value,
    and the share being the panel's fraction of its interval's width (1 for
    the one panel of a zero-width interval, whose integral is 0); a panel
    split otherwise.  A panel at depth _MAX_DEPTH changed by more than its
    whole share ends that integral with NoConvergence, and so does a
    partition of its interval past _MAX_PANELS subintervals.
    The first evaluator call holds every interval's complete tree down to the
    level whose panels fit _FIRST_CALL points (more intervals than fit one
    call of _TRAP_CHUNK points take several), and the first levels' halves
    are read from it.  Below it, refinement runs one depth level at a time:
    both halves of every panel some integral still holds, over every
    interval, are evaluated in calls of at most _TRAP_CHUNK points, so the
    evaluator is called about once per level.  Each integral's accepted
    panels are those of a depth-first refinement of that integral alone;
    their values and their refinement changes / 15 are summed in position
    order, so value and err_est agree with the depth-first sums to rounding,
    and equal those of a run over that interval alone bit for bit, whatever
    the first call holds and whatever other intervals share the calls.
    """
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    solo = a.ndim == 0
    a, b = a.reshape(-1), b.reshape(-1)
    width = b - a
    intervals = a.size
    # every interval's complete tree down to the level whose panels still fit _FIRST_CALL
    # points, level by level, each level interval by interval in position order, from one
    # evaluator call; level L starts at row I (2^L - 1)
    tree_lo, tree_hi = [a], [b]
    for _ in range(_tree_levels() - 1):
        half_lo, half_hi = _halves(tree_lo[-1], tree_hi[-1])
        tree_lo.append(half_lo)
        tree_hi.append(half_hi)
    tree = _panels(f, np.concatenate(tree_lo), np.concatenate(tree_hi))
    first = tree[:intervals]
    grouped = first.ndim == 3
    one = first.shape[2:] if grouped else first.shape[1:]  # one group's value

    def out(v):
        return v.reshape(one)[()]

    coarse = _by_group(first)
    groups = coarse.shape[1]
    share = tol * np.fmax(1.0, np.abs(coarse).max(axis=2))  # (I, G); a NaN coarse value gives tol
    live = True  # live[p, g]: group g still holds panel p (at first, every group every panel)
    failed = {}  # NoConvergence by integral, i * G + g
    # accepted (panel, group) pairs as flat indices into the (panel, group) pairs of every
    # level in turn, with their values and refinement changes; sorted once at the end
    los, owners, done_pair, done_val, done_diff = [], [], [], [], []
    seen = accepted = 0
    # the open panels' intervals; a single interval's stays (1,) and broadcasts, and its
    # budget reads its row of share and width without indexing by panel
    owner = np.arange(intervals)
    place = owner  # the open panels' positions in their tree level

    def accepted_pairs():
        """The accepted (panel, group) pairs so far, as (panel, integral i * G + g)."""
        panel, slot = np.divmod(np.concatenate(done_pair), groups)
        if intervals > 1:
            slot += np.concatenate(owners)[panel] * groups
        return panel, slot

    for depth in range(_MAX_DEPTH + 1):
        half_lo, half_hi = _halves(a, b)
        kids = (2 * place[:, None] + np.arange(2)).ravel()
        if depth + 1 < len(tree_lo):  # the halves are tree level depth + 1
            halves = _by_group(tree[intervals * (2 ** (depth + 1) - 1) + kids])
        else:
            halves = _by_group(_panels(f, half_lo, half_hi))
        fine = halves[0::2] + halves[1::2]
        diff = _worst(np.abs(fine - coarse))
        row = owner if intervals > 1 else 0
        # a panel's fraction of its interval's width; a zero-width interval's one panel
        # holds all of it
        frac = np.divide(b - a, width[row], out=np.ones_like(a), where=width[row] != 0.0)
        budget = share[row] * np.maximum(frac, 1e-6)[:, None]
        if depth < _MAX_DEPTH:
            done = diff <= 0.25 * budget
        else:  # the last level accepts every panel
            done = np.ones(diff.shape, dtype=bool)
        if groups > 1:  # a single group holds every panel it has not accepted
            done &= live
        if depth == _MAX_DEPTH:  # ... and ends an integral with a panel past its whole share
            for p, g in zip(*np.nonzero(done & (diff > budget))):  # its first such panel first
                s = int(np.broadcast_to(owner, len(a))[p]) * groups + int(g)
                if s not in failed:
                    failed[s] = NoConvergence(
                        f"panel [{a[p]}, {b[p]}] not converged at depth {depth}",
                        best=out(fine[p, g]),
                        err_est=diff[p, g],
                    )
        pair = done.ravel().nonzero()[0]
        los.append(a)
        owners.append(owner)
        done_pair.append(pair + seen)
        done_val.append(fine.reshape(-1, fine.shape[2])[pair])
        done_diff.append(diff.ravel()[pair])
        seen += done.size
        accepted += pair.size
        open_ = ~done
        if groups > 1:
            open_ &= live
        if accepted + 2 * len(a) > _MAX_PANELS:  # an integral may be past its panel budget
            slot = accepted_pairs()[1]
            held_p, held_g = np.nonzero(open_)
            held_slot = np.broadcast_to(owner, len(a))[held_p] * groups + held_g
            counts = (np.bincount(slot, minlength=intervals * groups)
                      + 2 * np.bincount(held_slot, minlength=intervals * groups))
            for s in np.flatnonzero(counts > _MAX_PANELS).tolist():
                i, g = divmod(s, groups)
                mine, rows = slot == s, open_[:, g] & (owner == i)
                best = np.concatenate(done_val)[mine].sum(axis=0) + fine[rows, g].sum(axis=0)
                err = np.concatenate(done_diff)[mine].sum() / 15.0 + diff[rows, g].sum()
                failed[s] = NoConvergence(f"more than {_MAX_PANELS} panels at depth {depth}",
                                          best=out(best), err_est=err)
                open_[rows, g] = False
        held = open_.any(axis=1) if groups > 1 else open_[:, 0]
        if not held.any():
            break
        split = np.repeat(held, 2)
        a, b, coarse, place = half_lo[split], half_hi[split], halves[split], kids[split]
        if intervals > 1:
            owner = np.repeat(owner[held], 2)
        if groups > 1:
            live = np.repeat(open_[held], 2, axis=0)
    panel, slot = accepted_pairs()
    order = np.lexsort((np.concatenate(los)[panel], slot))
    values = np.concatenate(done_val)[order]
    errs = np.concatenate(done_diff)[order] / 15.0
    outcomes, start = [], 0
    for s, count in enumerate(np.bincount(slot, minlength=intervals * groups).tolist()):
        end = start + count
        outcomes.append(failed[s] if s in failed else (
            out(np.add.accumulate(values[start:end])[-1]), np.add.accumulate(errs[start:end])[-1]))
        start = end
    if grouped:
        outcomes = [outcomes[i * groups:(i + 1) * groups] for i in range(intervals)]
    if not solo:
        return outcomes
    if grouped or not isinstance(outcomes[0], NoConvergence):
        return outcomes[0]
    raise outcomes[0]


def _theta_integrand(f, a, p):
    """theta -> f(t) * ((1-t)(a+t))^(p/2) dt/dtheta on [0, pi]."""

    def g(theta):
        t = 0.5 * ((1.0 - a) + (1.0 + a) * np.cos(theta))
        t = np.clip(t, -a, 1.0)
        vals = np.asarray(f(t))
        if p == -1:
            return vals
        jac = (0.5 * (1.0 + a) * np.sin(theta)) ** (p + 1)
        return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - 1))  # keeps vals' layout

    return g


def _periodic(g, tol):
    """Trapezoid rule on [0, pi] for an even 2pi-periodic g; returns (value, err_est) or None.

    Starts at _TRAP_START intervals; each doubling adds only the new
    midpoints.  The nodes of every rule up to _FIRST_CALL points, T_64's and
    the midpoints of each doubling to T_512 (_THETA, built at import, which a
    later change of _FIRST_CALL may shorten but not lengthen), come from one
    evaluator call in that order, and each doubling reads its midpoints from
    that table; later doublings call the evaluator for theirs.  Each level's
    samples are summed pairwise along the node-major table's contiguous node
    axis.  Accepts when
    max|T_2N - T_N| <= tol * (1 + max|T_2N|) and returns T_2N with that
    difference as its error estimate.  None when a sample of a rule that is
    reached is not finite, or no doubling up to _TRAP_MAX intervals is
    accepted.
    """
    n = _TRAP_START
    top = min(_table_top(), _THETA.size - 1)  # the finest rule in the table
    table = _node_major(g(_THETA[:top + 1]))
    vals = table[..., :n + 1]
    if not np.all(np.isfinite(vals)):
        return None
    total = vals.sum(axis=-1) - 0.5 * (vals[..., 0] + vals[..., -1])
    coarse = total * (np.pi / n)
    while n < _TRAP_MAX:
        if n < top:
            chunks = [table[..., n + 1:2 * n + 1]]
        else:
            mids = _midpoints(n)
            chunks = (_node_major(g(mids[start:start + _TRAP_CHUNK]))
                      for start in range(0, n, _TRAP_CHUNK))
        for vals in chunks:
            if not np.all(np.isfinite(vals)):
                return None
            total = total + vals.sum(axis=-1)
        n *= 2
        fine = total * (np.pi / n)
        diff = np.max(np.abs(np.atleast_1d(fine - coarse)))
        if diff <= tol * (1.0 + np.max(np.abs(np.atleast_1d(fine)))):
            return fine, float(diff)
        coarse = fine
    return None


def integrate(spec: IntegrandSpec, tol: float = 1e-10):
    """Integrate spec; returns (value, err_est).

    ThetaSubstituted integrals take the doubling trapezoid rule of
    _periodic, whose err_est is the change of the last doubling; when a
    sample is not finite or no doubling settles by _TRAP_MAX intervals they
    fall back to adaptive bisection, which a weight_power below -1 takes at
    once.  The rule converges geometrically when the substituted integrand
    is smooth: for weight_power -1 or +1 when g is smooth, for 0 when g
    carries sqrt((1-t)(a+t)).  FiniteDirect intervals use adaptive
    bisection, whose err_est is the sum of the accepted panels' refinement
    changes / 15.
    err_est <= tol * (1 + |value|) on success; NoConvergence carries the best
    estimate otherwise.
    """
    tol = max(tol, 1e-14)
    f = _guarded(spec.evaluator, spec.singularity_guards)
    iv = spec.interval
    if isinstance(iv, ThetaSubstituted):
        g = _theta_integrand(f, iv.a, iv.weight_power)
        # the trapezoid samples theta = 0 and pi, where a weight_power below -1 makes g infinite
        found = _periodic(g, tol) if iv.weight_power >= -1 else None
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
    evaluator's over [-x(s), x(s)].  A function with algebraic decay becomes
    smooth and bounded on (-1, 1); one with peaks near the origin keeps them
    near s = 0, at about their own width, where bisection over a wide x range
    starts from panels much wider than they are.
    """

    evaluator: Callable

    def __call__(self, s):
        x, jac = _rational_map(s)
        vals = np.asarray(self.evaluator(x))
        return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - 1))


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
    estimates. The blocks are integrated as many at a time as their first
    calls' trees fit one call of _TRAP_CHUNK points, in lock-step, and read
    in order: a block's NoConvergence is raised, and its value counts, only
    if the blocks before it did not stop the side, so the result is that of
    one block at a time, bit for bit. block must be finite and positive.
    "RationalOrder2": substitute x = s/(1-s^2) and integrate the
    smooth image over (-1, 1) in one adaptive pass, err_est being its estimate;
    a grouped evaluator, of shape (npts, G, K), gets one outcome per group,
    (value, err_est) or the group's NoConvergence, as from _adaptive.
    """
    if not (np.isfinite(block) and block > 0.0):
        raise ValueError(f"block must be finite and positive, not {block!r}")
    tol = max(tol, 1e-14)
    if decay == "Exponential":
        per_call = _TRAP_CHUNK // (_GX.size * (2 ** _tree_levels() - 1))  # blocks

        def one_side(sign):
            total = err = 0.0
            quiet = 0
            for start in range(0, _MAX_BLOCKS, per_call):
                a = np.arange(start, min(start + per_call, _MAX_BLOCKS)) * block
                b = a + block
                if sign < 0:
                    a, b = -b, -a
                for outcome in _adaptive(evaluator, a, b, tol * 0.1):
                    if isinstance(outcome, NoConvergence):
                        raise outcome
                    contrib, contrib_err = outcome
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
        return _adaptive(RationalImage(evaluator), -1.0, 1.0, tol)
    raise ValueError(f"unknown decay class {decay!r}")
