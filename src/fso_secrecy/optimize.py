"""Wiretap-code rate optimizers on the gamma-surrogate throughput surface.

The paper states each optimum as a stationarity condition: a fixed-point map
for the adaptive redundancy rate, a pair of coupled updates for the fixed
scheme's rate pair, and a Lambert-W form for the codeword rate under the
outage ceiling.  Iterated as maps, these do not settle: near the operating
points of interest their local multiplier exceeds one.  Each solver
therefore finds the root of its condition directly:

1. sign-scan plus bisection on the stationarity residual, in array calls:
   one for the scan, and one per six levels of bisection, the last with only
   the levels the walk still needs.  Every sign-change cell of a scan is
   walked in the same calls, so a second root costs no call of its own
   unless its walk is the deeper; a lone root is returned without ranking;
2. where the scan finds no sign change, the zooming grid search
   :func:`grid_refine_maximize` of the throughput: through
   :func:`fixed_grid_oracle` or :func:`adaptive_grid_oracle`, or on the
   codeword rate's throughput factor.

The fixed scheme's rate constants and every stencil step are multiples of
u = min(C_b, 1), Bob's capacity at his mean surrogate SNR capped at 1 bpcu,
and the adaptive scan's of u_e = min(C_e, 1), Eve's, so a weak link is
searched at its own rate scale.  The fixed scheme's scans and grids and the
ceiling inversion's bracket end at most at the largest double below
``RATE_LIMIT``, the top of the one rate domain.

Each residual takes the surrogate outages and their slopes in the rate from
``sop_approx`` and ``reliability_outage_approx`` of
:mod:`fso_secrecy.secrecy`, one array call per scan, so the solvers form no
incomplete gamma or density of their own.  Every solver and oracle looks its
links up once per call and passes them to those two, and reads a link
constant, such as the rate scale u, from the link alone.
:func:`adaptive_unconstrained_re` and :func:`fixed_constrained_rb` return
the rate with the ``Optimum.method`` of the path that found it.  The
paper's map and Lambert-W forms live on as test references and hold at the
returned points.  The outage-ceiling inversion :func:`re_threshold` is a
root of the same secrecy curve: Newton steps on its analytic slope, kept
inside a bracket whose upper end is the pointing-free inversion.

:func:`re_threshold`, :func:`adaptive_unconstrained_re`,
:func:`fixed_unconstrained_pair` and :func:`fixed_constrained_rb` are
memoized per scenario like the links of :func:`fso_secrecy.channel.bob_link`
and ``eve_link``: one memo keeps up to 256 results of each of the four
solves, least recently used out, keyed on the frozen scenario and the
ceiling, c_b or pinned r_e.  Both schemes' families of a figure share the
threshold rates, and every ceiling of a scenario its unconstrained optima,
so a key asked for again, alone or in a batch, returns the stored result.
The results are immutable: a float, a tuple, a frozen :class:`Optimum`.
The outage functions stay unmemoized array kernels; the command line
memoizes the exact outages of its rows.

Every solve is a walk: a generator that yields the surrogate outages it
needs and takes their values back.  :func:`_drive` runs a batch of walks
together and answers each round of their requests in one kernel call per
curve and link, so each array call advances every open problem of a batch
on that link, and each problem takes exactly the steps, and gets exactly
the bits, of its solve alone; a lone walk is the one-walk batch.  The batch
forms :func:`re_thresholds`, :func:`adaptive_optima`, :func:`fixed_optima`
and :func:`fixed_constrained_rbs` take a list of problems (a scenario with
a ceiling, a capacity or a pinned r_e) and solve only the memo's misses;
the one-problem functions are their one-element calls.  ``re_thresholds``
and ``fixed_constrained_rbs`` raise the error of their first failing
problem, in the order given; the two optima batches put each failing
row's error in its place, so a caller can report the rows before it.
:func:`fixed_optima` solves the codeword rates of all its rows under a
binding ceiling in one memoized batch and hands each row the result of its
own key, so a failing codeword-rate solve is made once.

All solvers evaluate and report on the gamma-surrogate surface they are
derived on, :func:`fso_secrecy.secrecy.est_from_outages` of the surrogate
outages, formed in one place per scheme (``_fixed_throughput``,
``_adaptive_throughput``); the exact-kernel value of a returned optimum is
:func:`fso_secrecy.secrecy.est_fixed` / ``est_adaptive`` at its rates.  The
walks ``_fixed_est`` and ``_adaptive_est`` ask for the outages, one array
call per outage, and apply that formula.  Each optimum's last walk, its
curvature stencil or its one point, asks for the outages at the optimum,
and the throughput there is its ``est``.  The fixed pair takes the
redundancy rates of all its roots in one call, and the stationarity and
Hessian stencils of all its interior roots in one call per outage.
:func:`grid_refine_maximize` is the one grid search: the solvers'
fallbacks, the command line's oracles and the acceptance gate run it on
plain array objectives that call the outage functions themselves, once per
outage kind and zoom level, so no grid search drives a walk.  Every scan
and grid has ``GRID_POINTS`` nodes; only the grid search and the fixed
oracle take another count, which the command line's fixed-scheme oracle
sets to 160.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from fso_secrecy.channel import (
    LinkParams,
    ScenarioConfig,
    bob_link,
    eve_link,
)
from fso_secrecy.secrecy import (
    RATE_LIMIT,
    RatePair,
    SecrecyConstraint,
    est_from_outages,
    reliability_outage_approx,
    sop_approx,
)
from fso_secrecy.specfun import ConvergenceError

__all__ = [
    "Optimum",
    "re_threshold",
    "re_thresholds",
    "adaptive_unconstrained_re",
    "adaptive_optimal",
    "adaptive_optima",
    "fixed_unconstrained_pair",
    "fixed_constrained_rb",
    "fixed_constrained_rbs",
    "fixed_optimal",
    "fixed_optima",
    "grid_refine_maximize",
    "fixed_grid_oracle",
    "adaptive_grid_oracle",
    "rate_scale",
]

# The top of every rate scan and bracket: the largest rate below RATE_LIMIT.
_RATE_TOP = math.nextafter(RATE_LIMIT, 0.0)

# Bisection width in the residual scans' cells, times the rate scale: u in the
# fixed scheme, u_e in the adaptive one.
_RATE_TOL = 1e-9

# Halvings per array call of a bisection: 2**6 - 1 = 63 midpoints.
_BISECT_LEVELS = 6

# The fixed grid oracle's lowest codeword rate.
FIXED_ORACLE_RB_MIN = 1e-3

#: Nodes of every residual scan and of the grid oracles, per axis.
GRID_POINTS = 400

# The grid search zooms until its node step is at most this fraction of the
# first level's.
_ZOOM_TOL = _RATE_TOL

# The ceiling of a throughput that no ceiling gates.
_UNCONSTRAINED = SecrecyConstraint(1.0)


@dataclass(frozen=True)
class Optimum:
    """A solver result: rates, the throughput there, and diagnostics.

    ``method`` names the condition the point satisfies: ``fixed_point``
    (stationarity, a fixed-point map in the paper), ``lambert_w``
    (stationarity in r_b under the ceiling, a Lambert-W form in the paper),
    ``threshold`` (the outage pinned to the ceiling) or ``grid_oracle`` (a
    grid search).  Every solver reports ``grid_oracle`` when its scan found
    no root and an array grid search gave the rate: the adaptive scheme's
    r_e, the fixed scheme's pair, or the codeword rate of
    :func:`fixed_constrained_rb` under the ceiling.  ``hessian_ok``
    reports the local second-order check where one is performed; it is not
    an error flag.
    """

    rates: RatePair
    est: float
    method: str
    hessian_ok: bool
    constraint_active: bool


# ---------------------------------------------------------------------------
# walks: each problem's scalar solve, driven together with the others
# ---------------------------------------------------------------------------


def _sop(eve: LinkParams, r):
    """A walk's step: :func:`sop_approx` (eve, r), the outage and its slope."""
    (answer,) = yield ((eve, None, r),)
    return answer


def _rel(bob: LinkParams, n_a: int, r):
    """A walk's step: :func:`reliability_outage_approx` (bob, n_a, r)."""
    (answer,) = yield ((bob, n_a, r),)
    return answer


def _branch(request) -> tuple:
    """The call a request (link, n_a, rates) joins: one per curve and link
    constants, the only fields the kernel reads, so distinct links with equal
    constants share a call."""
    link, n_a, _ = request
    return n_a, link.gain, link.surrogate


def _call(link: LinkParams, n_a: int | None, rates):
    """The (outage, slope) of one request."""
    return sop_approx(link, rates) if n_a is None else reliability_outage_approx(link, n_a, rates)


def _answer(requests: list) -> list:
    """The (outage, slope) of each request (link, n_a, rates) of one
    :func:`_branch`, from one call on the first request's link with their
    rates laid end to end; a lone request is that call on its own rates."""
    if len(requests) == 1:
        return [_call(*requests[0])]
    link, n_a, _ = requests[0]
    sizes = [r.size if isinstance(r, np.ndarray) else 1 for _, _, r in requests]
    rates = np.concatenate([np.ravel(r) for _, _, r in requests])
    value, slope = _call(link, n_a, rates)
    answers, start = [], 0
    for (_, _, r), size in zip(requests, sizes):
        if np.ndim(r):
            cut = slice(start, start + size)
            answers.append((value[cut].reshape(np.shape(r)), slope[cut].reshape(np.shape(r))))
        else:
            answers.append((value[start], slope[start]))
        start += size
    return answers


def _drive(walks: list) -> list:
    """Run the generator ``walks`` together; return what each returns, or the
    exception it raises.

    A walk yields a tuple of requests (link, n_a, rates): the surrogate
    secrecy outage of the link at the rates where n_a is None, else its
    reliability outage with n_a beams.  It is sent back their (outage,
    slope) pairs, each with the bits of a call of its own.  Each round
    answers the requests of every open walk in one call per curve and link
    (:func:`_branch`), so a walk takes the steps of its scalar solve while
    the walks of a batch on one link share their calls.  A call that raises
    is made again per request, and the error goes to each walk whose own
    request raises.
    """
    results = [None] * len(walks)
    asked = {}  # walk index -> the requests it waits on

    def resume(i: int, answer=None) -> None:
        try:
            if isinstance(answer, Exception):
                asked[i] = walks[i].throw(answer)
            else:
                asked[i] = walks[i].send(answer)
        except StopIteration as stop:
            results[i] = stop.value
        except Exception as exc:  # the walk's own error, raised for its problem
            results[i] = exc

    for i in range(len(walks)):
        resume(i)
    while asked:
        waiting, asked = asked, {}
        answers = {i: [None] * len(requests) for i, requests in waiting.items()}
        calls = {}
        for i, requests in waiting.items():
            for j, request in enumerate(requests):
                calls.setdefault(_branch(request), []).append((i, j))
        for members in calls.values():
            requests = [waiting[i][j] for i, j in members]
            try:
                outs = _answer(requests)
            except Exception:
                outs = []
                for request in requests:
                    try:
                        outs += _answer([request])
                    except Exception as exc:
                        outs.append(exc)
            for (i, j), out in zip(members, outs):
                answers[i][j] = out
        for i, got in answers.items():
            resume(i, next((a for a in got if isinstance(a, Exception)), tuple(got)))
    return results


def _values(results: list) -> list:
    """The walks' ``results`` in order, or the first one's error raised."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


class _Memo:
    """The solves of :func:`_re_threshold`, :func:`_adaptive_unconstrained_re`,
    :func:`_fixed_unconstrained_pair` and :func:`_fixed_constrained_rb`, keyed
    on (walk, arguments); each walk keeps its ``size`` most recently used
    results, so a long batch of one walk does not push out another's.
    ``hits`` and ``misses`` count each walk's keys by its name."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.stores: dict = {}  # walk -> OrderedDict of arguments -> result
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()

    def clear(self) -> None:
        self.stores.clear()
        self.hits.clear()
        self.misses.clear()

    def solve(self, asks: list) -> list:
        """The result of each (walk, arguments) of ``asks``, in order: a
        stored one, or one of a :func:`_drive` of the distinct keys not
        stored, each solved once.  A result is a value or the error its
        walk raised; an error is not stored."""
        fresh = {}
        for walk, key in asks:
            known = key in self.stores.get(walk, ()) or (walk, key) in fresh
            (self.hits if known else self.misses)[walk.__name__] += 1
            if not known:
                fresh[walk, key] = None
        for ask, result in zip(fresh, _drive([walk(*key) for walk, key in fresh])):
            fresh[ask] = result
            if not isinstance(result, Exception):
                self.stores.setdefault(ask[0], OrderedDict())[ask[1]] = result
        out = []
        for walk, key in asks:
            store = self.stores.get(walk, {})
            if key in store:
                store.move_to_end(key)
            out.append(fresh[walk, key] if (walk, key) in fresh else store[key])
        for store in self.stores.values():
            while len(store) > self.size:
                store.popitem(last=False)
        return out


# Up to 256 results of each of the four memoized walks.
_MEMO = _Memo(256)


# ---------------------------------------------------------------------------
# generic search helpers (deterministic, first-index tie-breaking), and each
# scheme's surrogate throughput
# ---------------------------------------------------------------------------


def _curves_down(f: np.ndarray, u: float) -> bool:
    """Whether ``f`` at x - h, x, x + h has a negative second difference, in units of u."""
    lo, mid, hi = (f / u).tolist()
    return hi - 2.0 * mid + lo < 0.0


def _midpoint_tree(lo: float, hi: float, depth: int) -> list[float]:
    """The midpoints, each ``0.5 * (a + b)`` of its cell, of ``depth``
    halvings of [lo, hi] in level order: the children of node k are nodes
    2k + 1 and 2k + 2."""
    mids, cells = [], [(lo, hi)]
    for _ in range(depth):
        below = []
        for a, b in cells:
            m = 0.5 * (a + b)
            mids.append(m)
            below += [(a, m), (m, b)]
        cells = below
    return mids


def _bisect_roots(g, cells, tol: float, iters: int = 200):
    """A walk: the bisected roots of the residual walk ``g``, one in each
    cell (lo, hi, g(lo)) of ``cells``, all walked in the same array calls.

    Each call evaluates, for every cell still open, the :func:`_midpoint_tree`
    of its next halvings: ``_BISECT_LEVELS`` of them, fewer where ``iters``
    or the halvings still needed to narrow the cell below ``tol`` end its
    walk sooner.  So the cells share their calls, and a lone cell is the
    one-cell case.  Each walk down its tree by sign stops where one call per
    halving would (width ``tol``, or ``iters`` halvings) and returns the same
    float.  Only a midpoint of the sign of g(lo) becomes ``lo``, so that sign
    holds throughout.
    """
    walks = [[lo, hi, g_lo > 0.0, iters] for lo, hi, g_lo in cells]
    while True:
        trees = []  # (walk, depth, midpoints) of each open cell
        for walk in walks:
            lo, hi, _, left = walk
            if left > 0 and not hi - lo < tol:
                # k halvings narrow the cell below tol once 2**k > (hi - lo) / tol.
                # A quotient past the double range, or a tol of 0, leaves it to
                # iters; a count one short of the rounded walk costs one more call.
                ratio = (hi - lo) / tol if tol > 0.0 else math.inf
                needed = math.frexp(ratio)[1] if math.isfinite(ratio) else left
                depth = min(_BISECT_LEVELS, left, needed)
                trees.append((walk, depth, _midpoint_tree(lo, hi, depth)))
        if not trees:
            return [0.5 * (lo + hi) for lo, hi, _, _ in walks]
        mids = np.array([m for _, _, mids in trees for m in mids])
        pos = ((yield from g(mids)) > 0.0).tolist()
        for walk, depth, mids in trees:
            lo, hi, lo_pos, left = walk
            k = 0
            for _ in range(depth):
                if hi - lo < tol:
                    break
                if pos[k] == lo_pos:
                    lo, k = mids[k], 2 * k + 2
                else:
                    hi, k = mids[k], 2 * k + 1
            walk[:] = lo, hi, lo_pos, left - depth
            pos = pos[len(mids):]


def _scan_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    # lo + i * step, not np.linspace: every residual scan uses these nodes.
    step = (hi - lo) / (n - 1)
    return lo + np.arange(n) * step


def _scan_roots(g, xs, gs, tol: float, falling_only: bool = False):
    """A walk: the roots of the residual walk ``g``, bisected together to
    width ``tol``, in the cells of the scan ``xs`` (values ``gs``) where its
    sign changes; with ``falling_only``, only where it turns from positive
    to non-positive."""
    pos = gs > 0.0
    crossed = np.flatnonzero(pos[:-1] & (gs[1:] <= 0.0) if falling_only else pos[:-1] != pos[1:])
    xs = np.asarray(xs)
    cells = list(zip(xs[crossed].tolist(), xs[crossed + 1].tolist(), gs[crossed]))
    return (yield from _bisect_roots(g, cells, tol))


def _first_best(xs: list[float], values) -> float:
    """The first of ``xs`` whose value is largest, as ``max`` with a key picks it."""
    values = values.tolist()
    return xs[max(range(len(xs)), key=values.__getitem__)]


def _fixed_throughput(r_e, r_b, s, t, constraint):
    """The fixed scheme's surrogate throughput at rates that broadcast (a
    column of r_e against a row of r_b, say), from the secrecy outages ``s``
    at r_e and the reliability outages ``t`` at r_b; 0 outside
    0 <= r_e < r_b."""
    est = est_from_outages(r_b - r_e, t, s, constraint)
    return np.where((0.0 <= r_e) & (r_e < r_b), est, 0.0)


def _fixed_est(eve: LinkParams, bob: LinkParams, n_a: int, r_e, r_b, constraint):
    """A walk: :func:`_fixed_throughput` at r_e and r_b, in one call per
    outage."""
    # Negative rates' cells are 0 whatever they map to; a rate past the top takes its outage.
    (s, _), (t, _) = yield (
        (eve, None, np.clip(r_e, 0.0, _RATE_TOP)),
        (bob, n_a, np.clip(r_b, 0.0, _RATE_TOP)),
    )
    return _fixed_throughput(r_e, r_b, s, t, constraint)


def _adaptive_throughput(c_b: float, r_e, s, constraint):
    """The adaptive scheme's surrogate throughput at capacity ``c_b``, at a
    rate or an array of rates r_e, from the secrecy outages ``s`` there."""
    return est_from_outages(c_b - r_e, 0.0, s, constraint)


def _adaptive_est(eve: LinkParams, c_b: float, r_e, constraint):
    """A walk: :func:`_adaptive_throughput` at r_e, in one outage call."""
    s, _ = yield from _sop(eve, r_e)
    return _adaptive_throughput(c_b, r_e, s, constraint)


# ---------------------------------------------------------------------------
# threshold redundancy rate (constrained-secrecy inversion)
# ---------------------------------------------------------------------------


def re_threshold(sc: ScenarioConfig, s_th: float) -> float:
    """Redundancy rate at which the surrogate secrecy outage equals ``s_th``.

    The outage S falls from 1 at rate 0, so the root of S(r) = s_th is
    bracketed by 0 and the pointing-free inversion r_free, where the gamma
    part of the surrogate CDF alone reaches 1 - s_th: the pointing term only
    adds to the CDF, so S(r_free) <= s_th.  Should rounding break that, the
    upper end doubles until it holds.  Newton steps on the analytic slope of
    :func:`fso_secrecy.secrecy.sop_approx` then shrink the bracket,
    with bisection wherever a step would leave it or would not halve the
    step before last (``rtsafe``, Numerical Recipes 9.4), until its width
    is a few ulps or stops shrinking.  The result is the bracket's feasible
    end, so the outage there never exceeds ``s_th``.  Only a ceiling no rate
    meets raises :class:`ConvergenceError`: 1 - s_th rounds to 1, so r_free
    is not finite, or the outage tops ``s_th`` at the domain's top rate.

    The one-key case of :func:`re_thresholds`.
    """
    return re_thresholds([(sc, s_th)])[0]


def re_thresholds(keys) -> list[float]:
    """:func:`re_threshold` at each (scenario, ceiling) of ``keys``, in order,
    from the memo or from one batch of the distinct keys it lacks, whose
    rtsafe steps share their array calls.  It raises the error of the first
    key that fails."""
    return _values(_MEMO.solve([(_re_threshold, (sc, s_th)) for sc, s_th in keys]))


def _re_threshold(sc: ScenarioConfig, s_th: float):
    """The walk of :func:`re_threshold`."""
    SecrecyConstraint(s_th)  # raises ValueError outside (0, 1]
    if s_th == 1.0:
        return 0.0
    link = eve_link(sc)
    t_free = float(_sp.gammaincinv(link.surrogate.k, 1.0 - s_th))
    gain = link.gain * link.surrogate.theta
    floor = ConvergenceError(f"secrecy ceiling {s_th} is below the achievable outage floor")
    if not math.isfinite(t_free):
        raise floor
    hi = min(math.log1p(t_free * gain) / math.log(2.0), _RATE_TOP)
    while True:
        s, ds = yield from _sop(link, hi)
        if s <= s_th:
            break
        if hi == _RATE_TOP:
            raise floor
        hi = min(2.0 * hi, _RATE_TOP)

    lo, r = 0.0, hi
    last = before = math.inf  # the last two step lengths
    while True:
        width = hi - lo
        # The smallest step is half the stopping width, so an iterate next
        # to the root steps across it.  A zero slope gives a NaN step.
        step = 2e-16 * hi
        with np.errstate(all="ignore"):
            new = float(r - (s - s_th) / ds)
        new = max(new, r + step) if s > s_th else min(new, r - step)
        # Bisect where Newton would leave the bracket, or would not halve
        # the step before last.
        if not (lo < new < hi and abs(new - r) <= 0.5 * before):
            new = 0.5 * (lo + hi)
        before, last = last, abs(new - r)
        r = new
        s, ds = yield from _sop(link, r)
        if s <= s_th:
            hi = r
        else:
            lo = r
        if hi - lo <= 2.0 * step or not hi - lo < width:
            return hi


# ---------------------------------------------------------------------------
# adaptive scheme
# ---------------------------------------------------------------------------


def adaptive_unconstrained_re(sc: ScenarioConfig, c_b: float) -> tuple[float, str]:
    """Throughput-maximizing redundancy rate of the adaptive scheme, no
    ceiling, and the ``Optimum.method`` of its path.

    The paper's stationarity condition, solved as a root of the surrogate
    throughput's slope -(1 - s) - (c_b - r) s', with the analytic outage
    slope s': a sign-scan over (0, c_b) in one array call, then bisection,
    six levels per array call, of every cell where it turns from rising to
    falling at once; the root with the largest throughput wins.  If the
    slope flips neither on the scan nor on a scan of its first cell alone,
    :func:`adaptive_grid_oracle` with no ceiling stands in.

    The scan's lower end and the bisection width are multiples of the
    eavesdropper's rate scale u_e = min(C_e, 1), so a link whose whole rate
    scale lies below 1e-4 is still scanned where its slope falls.  Memoized
    with the other batched solves, on (scenario, c_b).
    """
    return _values(_MEMO.solve([(_adaptive_unconstrained_re, (sc, c_b))]))[0]


def _adaptive_unconstrained_re(sc: ScenarioConfig, c_b: float):
    """The walk of :func:`adaptive_unconstrained_re`."""
    if not c_b > 0.0:
        raise ValueError(f"c_b must be positive, got {c_b}")
    eve = eve_link(sc)
    u_e = rate_scale(eve)

    def slope(r):
        # The throughput's derivative, on a float or an array of rates.
        s, ds = yield from _sop(eve, r)
        return -(1.0 - s) - (c_b - r) * ds

    lo = 1e-4 * min(c_b, u_e)
    hi = c_b - lo

    # Slope sign-scan: the throughput vanishes at both ends of (0, c_b), so
    # an interior maximum exists and the slope changes sign across it.
    xs = _scan_nodes(lo, hi, GRID_POINTS)
    gs = yield from slope(xs)
    roots = yield from _scan_roots(slope, xs, gs, _RATE_TOL * u_e, falling_only=True)
    if not roots:
        # Where the outage is exactly 1 with a zero slope at the first node,
        # the whole rise can sit inside the first cell: scan it alone.
        xs = _scan_nodes(lo, xs[1], GRID_POINTS)
        gs = yield from slope(xs)
        roots = yield from _scan_roots(slope, xs, gs, _RATE_TOL * u_e, falling_only=True)
    if len(roots) == 1:  # a lone root is not ranked
        return roots[0], "fixed_point"
    if roots:
        ests = yield from _adaptive_est(eve, c_b, np.array(roots), _UNCONSTRAINED)
        return _first_best(roots, ests), "fixed_point"
    return adaptive_grid_oracle(sc, c_b, 1.0).rates.r_e, "grid_oracle"


def adaptive_optimal(sc: ScenarioConfig, c_b: float, s_th: float) -> Optimum:
    """Ceiling-aware optimal redundancy rate for realized capacity ``c_b``.

    The optimum is the larger of the unconstrained stationary rate and the
    threshold rate that pins the outage to the ceiling ``s_th``, both from
    the memoized solves, so the ceilings of one scenario and capacity share
    one unconstrained solve.  Where even the threshold rate exceeds the
    capacity no operating point has a positive secrecy rate, and the report
    degenerates to zero throughput at the capacity itself.  The one-row
    case of :func:`adaptive_optima`, whose error it raises.
    """
    return _values(adaptive_optima([(sc, c_b, s_th)]))[0]


def adaptive_optima(rows) -> list[Optimum]:
    """:func:`adaptive_optimal` at each (scenario, c_b, ceiling) of ``rows``,
    in order, or in a row's place the error its one-row call raises.  The
    unconstrained rates and thresholds the memo lacks are solved in one
    batch, and the rows' stencils in one call per link."""
    solved = _MEMO.solve(
        [(_adaptive_unconstrained_re, (sc, c_b)) for sc, c_b, _ in rows]
        + [(_re_threshold, (sc, s_th)) for sc, _, s_th in rows]
    )
    walks = map(_adaptive_optimum, rows, solved[: len(rows)], solved[len(rows) :])
    return _drive(list(walks))


def _adaptive_optimum(row, unconstrained, threshold):
    """The walk of one row of :func:`adaptive_optima`, from its solved
    unconstrained rate and threshold (either may be the error it raised)."""
    sc, c_b, s_th = row
    constraint = SecrecyConstraint(s_th)
    (re_u, method_u), re_t = _values([unconstrained, threshold])
    constraint_active = re_t > re_u
    r_e = max(re_u, re_t)
    feasible = r_e <= c_b
    if not feasible:
        r_e = c_b
    # The second-difference stencil must lie strictly inside (0, c_b): at an
    # end point the throughput's edge, not its curvature, decides the sign.
    # Where it is taken, its middle holds the optimum's throughput.
    u = rate_scale(bob_link(sc))
    h = 1e-4 * u
    stencil = feasible and 0.0 < r_e - h and r_e + h < c_b and not constraint_active
    rs = np.array([r_e - h, r_e, r_e + h]) if stencil else r_e
    s, _ = yield from _sop(eve_link(sc), rs)
    psi = _adaptive_throughput(c_b, rs, s, constraint)
    est = float(psi[1]) if stencil else psi
    hessian_ok = stencil and est > 0.0 and _curves_down(psi, u)
    return Optimum(
        rates=RatePair(r_b=c_b, r_e=r_e),
        est=est,
        method="threshold" if constraint_active else method_u,
        hessian_ok=hessian_ok,
        constraint_active=constraint_active,
    )


# ---------------------------------------------------------------------------
# fixed-rate scheme: unconstrained pair
# ---------------------------------------------------------------------------


def _cap_seed(link: LinkParams) -> float:
    """The link's capacity at its mean surrogate SNR, Bob's or Eve's: where
    the codeword-rate scans set their upper end.  It is positive even where
    1 + SNR rounds to 1."""
    sur = link.surrogate
    return math.log1p(link.gain * sur.theta * sur.k) / math.log(2.0)


def rate_scale(link: LinkParams) -> float:
    """The solvers' rate scale on the link, u = min(C, 1) of its capacity C
    at its mean surrogate SNR (:func:`_cap_seed`), in bpcu."""
    return min(_cap_seed(link), 1.0)


def fixed_unconstrained_pair(sc: ScenarioConfig) -> Optimum:
    """Jointly optimal (codeword, redundancy) rates with no outage ceiling.

    The throughput (r_b - r_e)(1 - T(r_b))(1 - S(r_e)) is stationary where
    r_e = g_e(r_b) = r_b - (1 - T)/T' and r_b = g_b(r_e) = r_e + (1 - S)/(-S'),
    the paper's two updates, with the surrogate outages and their slopes.
    The chained residual g_b(g_e(r_b)) - r_b is sign-scanned in one array
    call per outage and bisected on the same functions, six levels per
    array call for all its cells at once; each root whose pair is an
    interior stationary point is a candidate, with the throughput at the
    centre of its stencil.  The scan spans 0.05 u to C_b + 15 u;
    :func:`fixed_grid_oracle` over it gives the pair when no root is a
    candidate.  Memoized with the other batched solves, on the scenario.
    """
    return _values(_MEMO.solve([(_fixed_unconstrained_pair, (sc,))]))[0]


def _fixed_unconstrained_pair(sc: ScenarioConfig):
    """The walk of :func:`fixed_unconstrained_pair`."""
    eve, bob, n_a = eve_link(sc), bob_link(sc), sc.nodes.n_a
    cap, u = _cap_seed(bob), rate_scale(bob)
    hi = min(cap + 15.0 * u, _RATE_TOP)

    # A quotient overflows where a slope is subnormal or zero, and is 0/0
    # where an outage and its slope both round to their limits; fmax sends
    # that NaN to the lower clamp, as it does -inf.
    def g_e(rb):
        t, dt = yield from _rel(bob, n_a, rb)
        with np.errstate(all="ignore"):
            re = rb - (1.0 - t) / dt
        return np.minimum(np.fmax(re, 1e-12 * u), rb - 1e-12 * u)

    def g_b(re):
        s, ds = yield from _sop(eve, re)
        with np.errstate(all="ignore"):
            rb = re + (1.0 - s) / -ds
        return np.minimum(np.fmax(rb, re + 1e-12 * u), _RATE_TOP)

    def resid(rb):
        return (yield from g_b((yield from g_e(rb)))) - rb

    xs = _scan_nodes(0.05 * u, hi, GRID_POINTS)
    gs = yield from resid(xs)
    roots = yield from _scan_roots(resid, xs, gs, _RATE_TOL * u)
    pairs = list(zip((yield from g_e(np.array(roots))).tolist(), roots)) if roots else []
    stencils = yield from _stationary_stencils(sc, pairs)
    # (est, re, rb, method, the throughput stencil there) of each candidate;
    # its throughput is the stencil's centre
    candidates = [
        (float(f[2, 2]), re, rb, "fixed_point", f)
        for (re, rb), f in zip(pairs, stencils)
        if f is not None
    ]
    if not candidates:
        o = fixed_grid_oracle(sc, 1.0, hi)
        d = _STENCIL * u
        f = yield from _fixed_est(
            eve, bob, n_a, o.rates.r_e + d[:, None], o.rates.r_b + d, _UNCONSTRAINED
        )
        candidates.append((o.est, o.rates.r_e, o.rates.r_b, "grid_oracle", f))

    est, re, rb, method, f = max(candidates, key=lambda c: c[0])
    return Optimum(
        rates=RatePair(r_b=rb, r_e=re),
        est=est,
        method=method,
        hessian_ok=_is_negative_definite(f, u),
        constraint_active=False,
    )


# The stencil checks step h u and difference the objective over u, which
# stays normal on the weakest links: the stationarity check steps 1e-5 u to a
# relative gradient tolerance, the Hessian check _HESSIAN_STEP u.  A
# candidate's stencil holds both, around its centre, at these offsets times u.
_STATIONARY_TOL, _HESSIAN_STEP = 1e-5, 1e-4
_STENCIL = np.array([-_HESSIAN_STEP, -1e-5, 0.0, 1e-5, _HESSIAN_STEP])


def _stationary_stencils(sc: ScenarioConfig, pairs: list[tuple[float, float]]):
    """A walk: the throughput on the ``_STENCIL`` around each (re, rb) of
    ``pairs`` that is an interior stationary point, else None; the interior
    pairs' stencils take one call per outage."""
    bob = bob_link(sc)
    u = rate_scale(bob)
    inside = [re > 1e-8 * u and rb > re + 1e-8 * u and rb < _RATE_TOP - 1e-6 * u for re, rb in pairs]
    stencils = iter(())
    if any(inside):
        d = _STENCIL * u
        res, rbs = np.array([pair for pair, ok in zip(pairs, inside) if ok]).T
        f = yield from _fixed_est(
            eve_link(sc),
            bob,
            sc.nodes.n_a,
            (res[:, None] + d)[:, :, None],
            (rbs[:, None] + d)[:, None, :],
            _UNCONSTRAINED,
        )
        stencils = iter(f)
    found = [next(stencils) if ok else None for ok in inside]
    return [f if f is not None and _is_stationary(f, u) else None for f in found]


def _is_stationary(f: np.ndarray, u: float) -> bool:
    f = (f[1:4, 1:4] / u).tolist()
    scale = max(1.0, abs(f[1][1]))
    g_re = (f[2][1] - f[0][1]) / 2e-5
    g_rb = (f[1][2] - f[1][0]) / 2e-5
    return abs(g_re) <= _STATIONARY_TOL * scale and abs(g_rb) <= _STATIONARY_TOL * scale


def _is_negative_definite(f: np.ndarray, u: float) -> bool:
    h = _HESSIAN_STEP
    f = (f[::2, ::2] / u).tolist()
    f00 = f[1][1]
    a = (f[2][1] - 2.0 * f00 + f[0][1]) / (h * h)
    c = (f[1][2] - 2.0 * f00 + f[1][0]) / (h * h)
    b = (f[2][2] - f[2][0] - f[0][2] + f[0][0]) / (4.0 * h * h)
    return a < 0.0 and a * c - b * b > 0.0


# ---------------------------------------------------------------------------
# fixed-rate scheme: ceiling-constrained codeword rate
# ---------------------------------------------------------------------------


def fixed_constrained_rb(sc: ScenarioConfig, r_e_fixed: float) -> tuple[float, str]:
    """Optimal codeword rate when the redundancy rate is pinned, and the
    ``Optimum.method`` of its path.

    The paper writes the stationarity condition in r_b as a Lambert-W
    expression that still holds r_b on both sides.  Its unwrapped residual
    (1 - T) - (r_b - r_e) T', with the surrogate reliability outage T and
    its slope, holds for any number of beams n_a.  It is sign-scanned in
    one array call and bisected, six levels per array call, in every cell
    where it turns from positive to negative at once; the root with the
    highest throughput factor (r_b - r_e)(1 - T) wins, and
    :func:`grid_refine_maximize` of that factor over the scan's interval
    stands in where the scan finds none.

    The scan runs upward from 1e-6 u above ``r_e_fixed`` to the higher of
    ``r_e_fixed`` + 25 u and C_b + 10 u, so the rate returned lies above
    ``r_e_fixed`` wherever a double does below ``RATE_LIMIT``.  Memoized
    with the other batched solves, on (scenario, r_e_fixed); the one-key
    case of :func:`fixed_constrained_rbs`.
    """
    return fixed_constrained_rbs([(sc, r_e_fixed)])[0]


def fixed_constrained_rbs(keys) -> list[tuple[float, str]]:
    """:func:`fixed_constrained_rb` at each (scenario, pinned r_e) of
    ``keys``, in order, from the memo or from one batch of the distinct keys
    it lacks; it raises the error of the first key that fails."""
    return _values(_MEMO.solve([(_fixed_constrained_rb, (sc, r_e)) for sc, r_e in keys]))


def _fixed_constrained_rb(sc: ScenarioConfig, r_e_fixed: float):
    """The walk of :func:`fixed_constrained_rb`."""
    if r_e_fixed < 0.0:
        raise ValueError(f"r_e_fixed must be non-negative, got {r_e_fixed}")
    bob, n_a = bob_link(sc), sc.nodes.n_a
    cap, u = _cap_seed(bob), rate_scale(bob)
    lo = min(r_e_fixed + 1e-6 * u, _RATE_TOP)
    hi = min(max(r_e_fixed + 25.0 * u, cap + 10.0 * u), _RATE_TOP)

    def factor(rb, t):
        # The throughput factor, on a float or an array of rates and their outages.
        return (rb - r_e_fixed) * (1.0 - t)

    def resid(rb):
        t, dt = yield from _rel(bob, n_a, rb)
        return (1.0 - t) - (rb - r_e_fixed) * dt

    xs = _scan_nodes(lo, hi, GRID_POINTS)
    gs = yield from resid(xs)
    roots = yield from _scan_roots(resid, xs, gs, _RATE_TOL * u, falling_only=True)
    if len(roots) == 1:  # a lone root is not ranked
        return roots[0], "lambert_w"
    if roots:
        rbs = np.array(roots)
        t, _ = yield from _rel(bob, n_a, rbs)
        return _first_best(roots, factor(rbs, t)), "lambert_w"

    def grid_factor(rb):
        return factor(rb, reliability_outage_approx(bob, n_a, rb)[0])

    return grid_refine_maximize(grid_factor, (lo, hi)).rates.r_b, "grid_oracle"


def fixed_optimal(sc: ScenarioConfig, s_th: float) -> Optimum:
    """Outage-ceiling-aware optimal rate pair for the fixed-rate scheme.

    If the unconstrained redundancy rate already satisfies the ceiling
    ``s_th`` the unconstrained pair stands; otherwise the redundancy rate is
    pinned to the threshold value and the codeword rate re-optimized around
    it.  The pair and the threshold rate come from the memoized solves, so
    the ceilings of one scenario share one unconstrained solve.  The one-row
    case of :func:`fixed_optima`, whose error it raises.
    """
    return _values(fixed_optima([(sc, s_th)]))[0]


def fixed_optima(rows) -> list[Optimum]:
    """:func:`fixed_optimal` at each (scenario, ceiling) of ``rows``, in
    order, or in a row's place the error its one-row call raises.  The pairs
    and thresholds the memo lacks are solved in one batch, then the codeword
    rates of the rows whose ceiling binds in another, each row handed the
    result of its own key, and the binding rows' stencils share one call
    per curve and link."""
    rows = list(rows)
    solved = _MEMO.solve(
        [(_fixed_unconstrained_pair, (sc,)) for sc, _ in rows]
        + [(_re_threshold, (sc, s_th)) for sc, s_th in rows]
    )
    pairs, thresholds = solved[: len(rows)], solved[len(rows) :]
    binds = list(map(_binds, pairs, thresholds))
    keys = [(sc, re_t) for (sc, _), re_t, bound in zip(rows, thresholds, binds) if bound]
    solved_rbs = iter(_MEMO.solve([(_fixed_constrained_rb, key) for key in keys]))
    codeword_rates = [next(solved_rbs) if bound else None for bound in binds]
    return _drive(list(map(_fixed_optimum, rows, pairs, thresholds, codeword_rates)))


def _binds(pair, re_t) -> bool:
    """Whether the ceiling of threshold rate ``re_t`` binds the unconstrained
    ``pair``; False where either is the error its solve raised."""
    if isinstance(pair, Exception) or isinstance(re_t, Exception):
        return False
    return not pair.rates.r_e >= re_t


def _fixed_optimum(row, pair, threshold, codeword_rate):
    """The walk of one row of :func:`fixed_optima`, from its solved pair,
    threshold and, where the ceiling binds, codeword rate, None elsewhere
    (each may be the error it raised)."""
    sc, s_th = row
    constraint = SecrecyConstraint(s_th)
    pair, re_t = _values([pair, threshold])
    if codeword_rate is None:
        return pair
    ((rb, method),) = _values([codeword_rate])
    bob = bob_link(sc)
    u = rate_scale(bob)
    rbs = np.array([rb - 1e-4 * u, rb, rb + 1e-4 * u])
    # The throughput along r_b, the optimum's at the middle: rb >= re_t.
    f_rb = yield from _fixed_est(eve_link(sc), bob, sc.nodes.n_a, re_t, rbs, constraint)
    return Optimum(
        rates=RatePair(r_b=rb, r_e=re_t),
        est=float(f_rb[1]),
        method=method,
        hessian_ok=_curves_down(f_rb, u),
        constraint_active=True,
    )


# ---------------------------------------------------------------------------
# grid search: the oracles and the solvers' fallbacks
# ---------------------------------------------------------------------------


def grid_refine_maximize(objective, bounds, grid_points: int = GRID_POINTS) -> Optimum:
    """Deterministic zooming grid search: the oracle, and the solvers' fallback.

    ``bounds`` is either a ``(lo, hi)`` pair for a one-argument objective or
    a pair of such pairs ``((re_lo, re_hi), (rb_lo, rb_hi))`` for a
    two-argument ``objective(r_e, r_b)``.  The objective takes one array of
    nodes per axis, shaped to broadcast (``np.ix_``), and returns the values
    on the whole grid, so each level of the search is one call.  The first
    level spans the bounds with ``grid_points`` nodes per axis, at least 2.
    Each later level spans one node step either side of the best point so
    far, clipped to the bounds, with as many nodes; the search stops after
    the first level whose step is at most ``_ZOOM_TOL`` times the first
    level's, or where a level would not shrink the step (fewer than four
    nodes).  Ties break toward the first index in C order, as ``np.argmax``
    gives it, a NaN value never wins, and the best point stands unless a
    later level beats it.  For one-dimensional searches both rate slots of
    the result carry the argmax.

    It serves the acceptance gate, the command line's oracles and the
    solvers' fallbacks: :func:`fixed_grid_oracle` and
    :func:`adaptive_grid_oracle` run it on the surrogate throughput, and
    :func:`fixed_constrained_rb` on its codeword-rate factor.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    pairs = bounds if hasattr(bounds[0], "__len__") else [bounds]
    box = spans = [(float(lo), float(hi)) for lo, hi in pairs]
    step = first = [(hi - lo) / (grid_points - 1) for lo, hi in box]
    best, x = -math.inf, [lo for lo, _ in box]
    while True:
        axes = [np.linspace(a, b, grid_points) for a, b in spans]
        v = np.broadcast_to(objective(*np.ix_(*axes)), (grid_points,) * len(axes))
        i = np.argmax(v)
        if np.isnan(v.flat[i]):  # argmax stops at the first NaN: rank without them
            i = np.argmax(np.where(np.isnan(v), -math.inf, v))
        if v.flat[i] > best:
            cell = np.unravel_index(i, v.shape)
            best, x = float(v.flat[i]), [float(ax[k]) for ax, k in zip(axes, cell)]
        spans = [(max(x_k - h, lo), min(x_k + h, hi)) for x_k, h, (lo, hi) in zip(x, step, box)]
        zoomed = [(b - a) / (grid_points - 1) for a, b in spans]
        done = all(h <= _ZOOM_TOL * h0 for h, h0 in zip(step, first))
        if done or not any(z < h for z, h in zip(zoomed, step)):
            break
        step = zoomed
    return Optimum(
        rates=RatePair(r_b=x[-1], r_e=x[0]),
        est=best,
        method="grid_oracle",
        hessian_ok=False,
        constraint_active=False,
    )


def fixed_grid_oracle(
    sc: ScenarioConfig, s_th: float, hi: float, grid_points: int = GRID_POINTS
) -> Optimum:
    """:func:`grid_refine_maximize` on the fixed-scheme surrogate throughput.

    The objective is ``est_from_outages(r_b - r_e, T(r_b), S(r_e),
    SecrecyConstraint(s_th))`` of the surrogate outages T and S where
    r_e < r_b and zero elsewhere, over r_e in [0, hi] and r_b in
    [``FIXED_ORACLE_RB_MIN``, hi], ``grid_points`` nodes per axis.  The
    throughput is separable, so each level takes one array call per outage,
    ``grid_points`` outages of each kind, and forms the cells by
    broadcasting.
    """
    eve, bob, n_a = eve_link(sc), bob_link(sc), sc.nodes.n_a
    constraint = SecrecyConstraint(s_th)

    def throughput(r_e, r_b):
        s, _ = sop_approx(eve, r_e)
        t, _ = reliability_outage_approx(bob, n_a, r_b)
        return _fixed_throughput(r_e, r_b, s, t, constraint)

    hi = min(hi, _RATE_TOP)
    return grid_refine_maximize(throughput, ((0.0, hi), (FIXED_ORACLE_RB_MIN, hi)), grid_points)


def adaptive_grid_oracle(sc: ScenarioConfig, c_b: float, s_th: float) -> Optimum:
    """:func:`grid_refine_maximize` on the adaptive-scheme surrogate throughput.

    The objective is ``est_from_outages(c_b - r_e, 0.0, S(r_e),
    SecrecyConstraint(s_th))`` of the surrogate outage S over r_e in
    [0, c_b], ``GRID_POINTS`` nodes, one array call per level.
    """
    eve, constraint = eve_link(sc), SecrecyConstraint(s_th)

    def throughput(r_e):
        return _adaptive_throughput(c_b, r_e, sop_approx(eve, r_e)[0], constraint)

    return grid_refine_maximize(throughput, (0.0, c_b))
