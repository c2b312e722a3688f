"""Seeded Monte-Carlo oracle for the optical wiretap link.

Samples the physical channel directly -- per-beam turbulence factors,
transmit-beam selection, receive-aperture combining, and the beam-wander
collection loss -- and turns the draws into empirical outage and throughput
estimates with 3-sigma confidence intervals.  Gamma factors come from numpy's
``Generator.standard_gamma`` (Marsaglia--Tsang).  The n small-scale factors
Gamma(beta, 1/beta) of a beam's apertures are drawn as their exact sum,
one Gamma(n * beta)/beta.

The reliability estimator thins by beam: the selected link is in outage only
when every beam is, so beam ``i + 1`` is drawn only for the trials still in
outage after beam ``i``.  It counts the same event over the same trials as
thresholding :func:`sample_bob_irradiance`, with fewer draws; at ``n_a = 1``
the two draw the same stream.  :func:`sample_bob_irradiance`, which the
adaptive throughput estimator uses, still draws every beam of every trial.

Reliability cases share their first draws.  :func:`estimate_reliability_outages`
takes a list of (scenario, r_b) cases, and every case starts each stream
from the same generator state.  So cases with the same large-scale shape
alpha draw the same first Gamma(alpha) variates, and cases that also share
the small-scale shape n_b * beta draw the same whole first beam.  Each of
these draws is made once per stream.  A generator's variates are a function
of its state alone, so saving ``rng.bit_generator.state`` after a shared
draw and restoring it before each draw that follows it replays the stream
exactly: every case gets the variates, in the order, of a run of its own,
and thins its remaining beams from there.  :func:`estimate_reliability_outage`
is the same kernel on one scenario, so its result equals the matching case's
bit for bit.

The capacity-averaged adaptive estimator floors each trial's interpolated
redundancy rate at the ceiling's threshold rate.  Below a cut capacity --
one table row under the threshold -- the floor is certain to bind, so only
the trials at or above the cut are interpolated; the rest take the
threshold rate and one scalar eavesdropper threshold, with the same bits.

Reproducibility model: trial ``t`` belongs to stream ``t mod stream_count``
and every stream owns an independent SFC64 generator (:func:`seeded_generator`)
seeded by a ``SeedSequence`` child spawned from the run seed.  SFC64 rather
than the counter-based Philox: the streams never jump ahead, and SFC64 gives
the same gamma variates about 30 % faster.  Per-stream partial results are
reduced in stream order with compensated summation, so a run is
bit-identical for a fixed ``(seed, stream_count, trials)`` triple no matter
how many worker threads evaluate the streams.  Streams past the trial count
hold no trial and are not spawned: child ``j`` has the same spawn key
however many are spawned, so every stream that holds trials keeps its
generator, and a stream count above the trial count gives the bits of a
stream count equal to it.

Buffers: each estimator call allocates its working arrays once, one scratch
set per worker thread (the caller's own at ``jobs`` 1), and every stream
draws into slices of them.  A scratch row holds the longest stream,
ceil(trials / stream_count) entries: 62,500 at the default 1e6 trials on 16
streams, 0.5 MB as floats.  A thread's set is 2 float rows and 1 bool row
in :func:`estimate_sop` (about 1.06 MB at that default), 4 and 1 in
:func:`estimate_reliability_outages` (2.06 MB; its thinned beams draw into
prefixes of two of them), and 3 and 2 in :func:`estimate_est` (1.63 MB).
:func:`estimate_est` also holds one trial-length array that all threads
share, every stream's capacities in its slice of it (8 MB at 1e6 trials);
it draws the eavesdropper in the pass that reduces the ceilings, into the
thread's scratch.  The samplers take the rows to fill as ``work`` and draw
with ``standard_gamma(..., out=)``, ``random(out=)`` and in-place
operations: the same variates and operations in the same order as on fresh
arrays, so the same bits.  A trial count whose buffers numpy cannot
allocate raises a ``MemoryError`` that names ``trials``.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from fso_secrecy import optimize
from fso_secrecy.channel import LinkParams, ScenarioConfig, bob_link, eve_link
from fso_secrecy.secrecy import RatePair, SecrecyConstraint, _rates, rate_threshold, sop_approx

__all__ = [
    "SimConfig",
    "Estimate",
    "seeded_generator",
    "sample_eve_irradiance",
    "sample_bob_irradiance",
    "estimate_sop",
    "estimate_reliability_outage",
    "estimate_reliability_outages",
    "estimate_est",
    "est_fixed_from_outages",
]

# Child-seed indices for the two physically independent fading processes.
_EVE_ROLE = 0
_BOB_ROLE = 1


@dataclass(frozen=True)
class SimConfig:
    """Size and seeding of one simulation run."""

    trials: int = 1_000_000
    seed: int = 0
    stream_count: int = 16

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.stream_count < 1:
            raise ValueError("stream_count must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def stream_sizes(self) -> list[int]:
        """Trials handled by each stream under the ``t mod stream_count``
        split, for the first min(stream_count, trials) streams: the rest
        hold no trial."""
        base, extra = divmod(self.trials, self.stream_count)
        return [base + (1 if j < extra else 0) for j in range(min(self.stream_count, self.trials))]


@dataclass(frozen=True)
class Estimate:
    """An empirical mean with a 99.7% (3-sigma) normal-theory halfwidth.

    ``count`` is the number of trials in which the event occurred when the
    mean is a probability, and ``None`` when it is a throughput average.
    """

    mean: float
    ci_halfwidth: float
    trials: int
    count: int | None = None


def seeded_generator(seed: np.random.SeedSequence) -> np.random.Generator:
    """The generator every Monte-Carlo draw comes from: SFC64 seeded by ``seed``."""
    return np.random.Generator(np.random.SFC64(seed))


def _stream_rngs(sim: SimConfig, role: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence(sim.seed)
    child = root.spawn(2)[role]
    return [seeded_generator(s) for s in child.spawn(len(sim.stream_sizes()))]


def _buffer(shape: int | tuple[int, ...], dtype: type = float) -> np.ndarray:
    """``np.empty(shape, dtype)`` for an estimator's draws.  The trial count
    sets the shape, so a shape numpy cannot allocate (``MemoryError``) or
    cannot even form (``ValueError``) raises a ``MemoryError`` that names
    ``trials``."""
    try:
        return np.empty(shape, dtype)
    except (MemoryError, ValueError) as exc:
        raise MemoryError(f"trials: too many to hold in memory ({exc})") from exc


class _Workers:
    """Per-stream work on ``jobs`` threads, results in stream order.

    Each thread, the caller's own at ``jobs`` 1, works in one scratch set
    of its own, made on its first stream and kept for every later map:
    ``rows`` float rows and ``masks`` bool rows, ``size`` long each.
    """

    def __init__(self, jobs: int, size: int, rows: int, masks: int) -> None:
        self._size, self._rows, self._masks = size, rows, masks
        self._local = threading.local()
        self._pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None

    def __enter__(self) -> _Workers:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def _run(self, fn: Callable, j: int) -> object:
        local = self._local
        if not hasattr(local, "scratch"):
            size = self._size
            local.scratch = _buffer((self._rows, size)), _buffer((self._masks, size), bool)
        return fn(j, *local.scratch)

    def map(self, fn: Callable[[int, np.ndarray, np.ndarray], object], count: int) -> list:
        """``fn(j, rows, masks)`` for each stream index ``j < count``."""
        if self._pool is None:
            return [self._run(fn, j) for j in range(count)]
        return list(self._pool.map(lambda j: self._run(fn, j), range(count)))


# ---------------------------------------------------------------------------
# irradiance samplers (normalized so that SNR = gamma0 * a0 * sample)
# ---------------------------------------------------------------------------


def _rows(work: Sequence[np.ndarray] | None, count: int, size: int) -> list[np.ndarray]:
    """The first ``size`` entries of each of ``work``'s first ``count`` rows,
    or ``count`` fresh arrays when ``work`` is None."""
    if work is None:
        return [np.empty(size) for _ in range(count)]
    return [work[i][:size] for i in range(count)]


def sample_eve_irradiance(
    sc: ScenarioConfig,
    rng: np.random.Generator,
    size: int,
    work: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Eavesdropper irradiance draws: collection loss x shared large-scale
    turbulence x aggregated small-scale turbulence.

    Per trial: one Gamma(alpha) large-scale draw (the eavesdropper's
    apertures sit inside one coherence cell), one Gamma(n_e * beta) draw for
    the sum of the n_e small-scale factors and, with beam wander only, one
    uniform for the quantile transform of the collection loss on (0, 1].

    ``work``, when given, is two float rows (a 2-D array, or a sequence of
    1-D arrays) of at least ``size`` entries: the draws are formed in the
    first ``size`` of row 0, which is returned, and row 1 is overwritten.
    """
    link = eve_link(sc)
    alpha = link.turb.alpha
    beta1 = link.turb.beta_single
    x, tmp = _rows(work, 2, size)
    rng.standard_gamma(alpha, size, out=x)
    x *= rng.standard_gamma(sc.nodes.n_e * beta1, size, out=tmp)
    if sc.sigma_s != 0.0:
        xi = link.pointing.xi
        rng.random(size, out=tmp)
        tmp **= 1.0 / (xi * xi)
        x *= tmp
    x /= alpha * beta1
    return x


def _sample_beam(
    link: LinkParams,
    n_b: int,
    rng: np.random.Generator,
    size: int,
    work: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """One transmit beam's irradiance draws at the legitimate receiver.

    Per trial: one Gamma(alpha) large-scale draw, shared by the receiver's
    apertures, and one Gamma(n_b * beta) draw for the sum of their
    small-scale factors.  No beam-wander loss on the aligned link.  ``work``
    is two rows, as in :func:`sample_eve_irradiance`.
    """
    alpha = link.turb.alpha
    beta1 = link.turb.beta_single
    x, tmp = _rows(work, 2, size)
    rng.standard_gamma(alpha, size, out=x)
    x *= rng.standard_gamma(n_b * beta1, size, out=tmp)
    x /= alpha * beta1
    return x


def sample_bob_irradiance(
    sc: ScenarioConfig,
    rng: np.random.Generator,
    size: int,
    work: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Legitimate-receiver irradiance draws under transmit selection: the
    strongest of ``n_a`` independent beams, each drawn as in ``_sample_beam``.

    ``work`` is as in :func:`sample_eve_irradiance`, with a third row when
    ``n_a`` > 1: the draws are returned in row 0, and beams 2..n_a are drawn
    in rows 1 and 2.
    """
    link = bob_link(sc)
    n_a = sc.nodes.n_a
    rows = _rows(work, 3 if n_a > 1 else 2, size)
    best = _sample_beam(link, sc.nodes.n_b, rng, size, rows)
    for _ in range(n_a - 1):
        np.maximum(best, _sample_beam(link, sc.nodes.n_b, rng, size, rows[1:]), out=best)
    return best


# ---------------------------------------------------------------------------
# probability estimators
# ---------------------------------------------------------------------------


def _binomial_estimate(hits: Sequence[int], sim: SimConfig) -> Estimate:
    total = 0
    for h in hits:  # stream order
        total += int(h)
    p = total / sim.trials
    ci = 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / sim.trials)
    if total in (0, sim.trials):
        # The plug-in halfwidth degenerates to zero at the extremes, which is
        # absence of power, not certainty; the rule-of-three bound stands in.
        ci = max(ci, 3.0 / sim.trials)
    return Estimate(mean=p, ci_halfwidth=ci, trials=sim.trials, count=total)


def estimate_sop(
    sc: ScenarioConfig, r_e: float | Sequence[float], sim: SimConfig, *, jobs: int = 1
) -> Estimate | list[Estimate]:
    """Empirical probability that the eavesdropper's channel beats ``r_e``.

    ``r_e`` may be one rate or a sequence of rates.  Every stream is drawn
    once and counted against each threshold, so a sequence gives back one
    ``Estimate`` per rate, each equal to the scalar call at that rate.
    """
    rates = np.atleast_1d(_rates(r_e))
    rngs = _stream_rngs(sim, _EVE_ROLE)
    sizes = sim.stream_sizes()
    thrs = rate_threshold(rates, sc.nodes.gamma0 * eve_link(sc).pointing.a0).tolist()

    def one(j: int, rows: np.ndarray, masks: np.ndarray) -> list[int]:
        draws = sample_eve_irradiance(sc, rngs[j], sizes[j], rows)
        above = masks[0][: sizes[j]]
        return [int(np.count_nonzero(np.greater(draws, thr, out=above))) for thr in thrs]

    with _Workers(jobs, sizes[0], rows=2, masks=1) as workers:
        parts = workers.map(one, len(sizes))
    estimates = [_binomial_estimate(hits, sim) for hits in zip(*parts)]
    return estimates[0] if np.ndim(r_e) == 0 else estimates


def estimate_reliability_outage(
    sc: ScenarioConfig, r_b: float | Sequence[float], sim: SimConfig, *, jobs: int = 1
) -> Estimate | list[Estimate]:
    """Empirical probability that the legitimate link cannot carry ``r_b``.

    ``r_b`` may be one rate or a sequence of rates; a sequence gives back one
    ``Estimate`` per rate.  Every rate is a case of
    :func:`estimate_reliability_outages`, so each element equals the float
    call at that rate.
    """
    rates = np.atleast_1d(r_b).tolist()
    estimates = estimate_reliability_outages([(sc, r) for r in rates], sim, jobs=jobs)
    return estimates[0] if np.ndim(r_b) == 0 else estimates


def estimate_reliability_outages(
    cases: Sequence[tuple[ScenarioConfig, float]], sim: SimConfig, *, jobs: int = 1
) -> list[Estimate]:
    """Empirical reliability outage of each ``(scenario, r_b)`` case, one
    ``Estimate`` per case, from the draws the cases share (see the module
    docstring).  A repeated case is drawn once.

    Thinned by beam: trials and beams are iid, so each stream draws beam
    ``i + 1`` for as many trials as beams 1..i left in outage, and what is
    left after the last beam is the outage count.
    """
    _rates([r_b for _, r_b in cases])
    # A case's draws and count depend only on (alpha, beta, n_b, n_a, thr).
    links = {}
    keys = []
    for sc, r_b in cases:
        link = bob_link(sc)
        key = (
            link.turb.alpha,
            link.turb.beta_single,
            sc.nodes.n_b,
            sc.nodes.n_a,
            rate_threshold(r_b, sc.nodes.gamma0 * link.pointing.a0),
        )
        links.setdefault(key, link)
        keys.append(key)
    # alpha -> first-beam shape n_b * beta -> the distinct cases drawing it
    tree: dict[float, dict[float, list[tuple]]] = {}
    for key in links:
        alpha, beta1, n_b = key[:3]
        tree.setdefault(alpha, {}).setdefault(n_b * beta1, []).append(key)
    rngs = _stream_rngs(sim, _BOB_ROLE)
    sizes = sim.stream_sizes()

    def one(j: int, rows: np.ndarray, masks: np.ndarray) -> list[int]:
        rng = rngs[j]
        bits = rng.bit_generator
        size = sizes[j]
        large, first, quotient = rows[0][:size], rows[1][:size], rows[2][:size]
        inside = masks[0]
        start = bits.state
        left_of = {}
        for alpha, shapes in tree.items():
            bits.state = start
            rng.standard_gamma(alpha, size, out=large)
            after_large = bits.state
            for shape, group in shapes.items():
                bits.state = after_large
                rng.standard_gamma(shape, size, out=first)
                first *= large
                after_first = bits.state
                for key in group:
                    _, beta1, n_b, n_a, thr = key
                    bits.state = after_first
                    np.divide(first, alpha * beta1, out=quotient)
                    left = int(np.count_nonzero(np.less_equal(quotient, thr, out=inside[:size])))
                    for _ in range(n_a - 1):
                        beam = _sample_beam(links[key], n_b, rng, left, rows[2:])
                        left = int(np.count_nonzero(np.less_equal(beam, thr, out=inside[:left])))
                    left_of[key] = left
        return [left_of[key] for key in keys]

    with _Workers(jobs, sizes[0], rows=4, masks=1) as workers:
        parts = workers.map(one, len(sizes))
    return [_binomial_estimate(hits, sim) for hits in zip(*parts)]


# ---------------------------------------------------------------------------
# throughput estimators
# ---------------------------------------------------------------------------


def est_fixed_from_outages(
    rates: RatePair, sop: Estimate, reliability_outage: Estimate, s_th: float
) -> Estimate:
    """Fixed-rate throughput from the two marginal outage estimates.

    ``sop`` is an :func:`estimate_sop` result at ``rates.r_e`` and
    ``reliability_outage`` an :func:`estimate_reliability_outage` result at
    ``rates.r_b``, both over the same number of trials; a caller that already
    drew the eavesdropper for other thresholds passes that estimate in.  The
    product of the two success rates scaled by the secrecy rate, with a
    delta-method halfwidth; it gates to zero when the estimated secrecy
    outage breaches ``s_th`` (mirroring the closed-form definition).  The
    adaptive scheme, whose codeword rate tracks the capacity, passes an
    exact zero reliability outage: count 0 and halfwidth 0.

    At a count of 0 or n a factor's plug-in variance p(1 - p)/n is 0, which
    is absence of power, not certainty; its estimate's own halfwidth h
    stands in, (h/3)**2, which is 1/n**2 for the rule-of-three halfwidth of
    :func:`estimate_sop` and :func:`estimate_reliability_outage`.  There the
    variance also keeps the product of the two factors' variances, the term
    of a product of independent estimates that the delta method drops: it
    is all that is left where both success rates are 0.
    """
    n = sop.trials
    p_sec = (n - sop.count) / n
    p_rel = (n - reliability_outage.count) / n
    if 1.0 - p_sec > s_th:
        return Estimate(mean=0.0, ci_halfwidth=0.0, trials=n)
    rate = rates.secrecy_rate
    mean = rate * p_rel * p_sec
    a_sec, b_sec = _variance_factors(sop, p_sec)
    a_rel, b_rel = _variance_factors(reliability_outage, p_rel)
    var = (rate * rate) * (p_rel * p_rel * a_sec * b_sec + p_sec * p_sec * a_rel * b_rel) / n
    if not (0 < sop.count < n and 0 < reliability_outage.count < n):
        var += (rate * rate) * (a_sec * b_sec) * (a_rel * b_rel) / (n * n)
    return Estimate(mean=mean, ci_halfwidth=3.0 * math.sqrt(var), trials=n)


def _variance_factors(outage: Estimate, p: float) -> tuple[float, float]:
    """Two factors whose product is n times the variance of the success rate
    ``p`` of ``outage``: p and 1 - p, or 1 and n (h/3)**2 for the halfwidth
    h of an estimate whose count is 0 or n (see :func:`est_fixed_from_outages`)."""
    n = outage.trials
    if 0 < outage.count < n:
        return p, 1.0 - p
    return 1.0, n * (outage.ci_halfwidth / 3.0) ** 2


# Rows of the adaptive estimator's redundancy table.
_TABLE_ROWS = 2048


def _adaptive_redundancy_table(sc: ScenarioConfig, r_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate the unconstrained stationarity curve capacity(r_e).

    At the unconstrained adaptive optimum the capacity and the redundancy
    rate satisfy c = r + (1 - s(r)) / (-s'(r)), where s is the surrogate
    outage -- the right side does not involve the capacity, so one table
    inverts the optimality condition for every realization at once.
    Interpolation error in the rate costs only second order in throughput
    because the point is stationary.
    """
    r_lo = 1e-4
    r_hi = max(r_hi, r_lo + 1.0)
    rs = np.linspace(r_lo, r_hi, _TABLE_ROWS)
    s, ds = sop_approx(eve_link(sc), rs)
    # Past the first rate where the outage stops falling, no capacity makes
    # the rate stationary.
    flat = np.flatnonzero(ds >= -1e-290)
    stop = int(flat[0]) if flat.size else _TABLE_ROWS
    caps = np.full(_TABLE_ROWS, np.inf)
    caps[:stop] = rs[:stop] + (1.0 - s[:stop]) / -ds[:stop]
    # np.interp reads the table as increasing in the capacity.
    return np.maximum.accumulate(caps), rs


def _ceiling_cut(table_c: np.ndarray, table_r: np.ndarray, r_th: float) -> float:
    """Capacity below which the floored table rate is ``r_th`` itself.

    With ``k`` the last row where ``table_r[k] <= r_th``, the cut is
    ``table_c[k - 1]``.  ``np.interp`` at a capacity strictly below it
    blends rows ``j`` and ``j + 1 <= k - 1`` (the table is nondecreasing in
    the capacity), so it returns at most ``table_r[k - 1]``, a full grid
    step (at least 1/2047 in rate) under ``r_th`` -- far above any rounding of
    the blend -- and ``max(., r_th)`` is ``r_th``.  The cut must be strict:
    where ``np.maximum.accumulate`` ties rows, or sends them to ``inf``, a
    capacity equal to ``table_c[k - 1]`` can read a row past ``k``.  Below
    the table's second row there is no cut (``-inf``).
    """
    k = int(np.searchsorted(table_r, r_th, side="right")) - 1
    return float(table_c[k - 1]) if k >= 1 else -math.inf


def estimate_est(
    sc: ScenarioConfig, s_th: float | Sequence[float], sim: SimConfig, *, jobs: int = 1
) -> Estimate | list[Estimate]:
    """Empirical effective secrecy throughput of the adaptive scheme,
    averaged over the realized capacity.

    Per trial the realized capacity is mapped to its optimal redundancy
    rate -- the ceiling-aware optimum, resolved through the
    capacity-independent stationarity curve of the unconstrained problem
    and floored at the threshold rate -- and the secret bits delivered that
    trial are averaged over both draws.  Only the trials at or above
    :func:`_ceiling_cut` are interpolated; every trial keeps the float full
    interpolation gives, in one full-length array per stream, so the
    pairwise sums keep their bits.

    ``s_th`` may be one ceiling or a sequence of them.  The draws and the
    redundancy table do not depend on the ceiling, so they are made once
    and a sequence gives back one ``Estimate`` per ceiling, each equal to
    the float call's.  A pinned rate pair's throughput, under either
    scheme, is :func:`est_fixed_from_outages` of the outage estimates.

    Two passes over the streams.  The first draws every stream's
    capacities into its slice of one trial-length array, whose maximum
    sizes the redundancy table.  The second draws each stream's
    eavesdropper irradiances into its thread's scratch and reduces every
    ceiling from them and the stream's capacities; each stream has its own
    eavesdropper generator, so drawing it there gives the same variates.
    """
    ceilings = [SecrecyConstraint(c).s_th for c in np.atleast_1d(s_th).tolist()]
    eve_rngs = _stream_rngs(sim, _EVE_ROLE)
    bob_rngs = _stream_rngs(sim, _BOB_ROLE)
    sizes = sim.stream_sizes()
    snr_b = sc.nodes.gamma0 * bob_link(sc).pointing.a0
    snr_e = sc.nodes.gamma0 * eve_link(sc).pointing.a0

    # Stream j's capacities are entries bounds[j]:bounds[j + 1] of cap.
    bounds = list(itertools.accumulate(sizes, initial=0))
    cap = _buffer(sim.trials)

    def draw(j: int, rows: np.ndarray, masks: np.ndarray) -> None:
        lo, hi = bounds[j], bounds[j + 1]
        # log2(1 + snr_b I), formed in place on the draw I.
        cap_j = sample_bob_irradiance(sc, bob_rngs[j], sizes[j], (cap[lo:hi], rows[0], rows[1]))
        cap_j *= snr_b
        cap_j += 1.0
        np.log2(cap_j, out=cap_j)

    def reduce_one(j: int, rows: np.ndarray, masks: np.ndarray) -> list[tuple[float, float]]:
        size = sizes[j]
        cap_j = cap[bounds[j] : bounds[j + 1]]
        i_e_j = sample_eve_irradiance(sc, eve_rngs[j], size, rows)
        kept, secure_th = masks[0][:size], masks[1][:size]
        sums = []
        for r_th, c_cut, thr_th in cuts:
            # cap - r_th where the trial is reliable and secure at r_th, else
            # +0.0: a masked negative difference times 0 is -0.0, and adding
            # 0.0 makes it +0.0.  A trial with cap = inf reads NaN here, but
            # it lies in ``free``, which is overwritten below.
            psi = np.subtract(cap_j, r_th, out=rows[2][:size])
            np.less_equal(r_th, cap_j, out=kept)
            kept &= np.less_equal(i_e_j, thr_th, out=secure_th)
            with np.errstate(invalid="ignore"):
                psi *= kept
            psi += 0.0
            free = np.flatnonzero(np.invert(np.less(cap_j, c_cut, out=kept), out=kept))
            c = cap_j[free]
            r_e = np.maximum(np.interp(c, table_c, table_r), r_th)
            secure = i_e_j[free] <= rate_threshold(r_e, snr_e)
            psi[free] = np.where((r_e <= c) & secure, c - r_e, 0.0)
            total = float(psi.sum())
            psi *= psi
            sums.append((total, float(psi.sum())))
        return sums

    with _Workers(jobs, sizes[0], rows=3, masks=2) as workers:
        workers.map(draw, len(sizes))
        table_c, table_r = _adaptive_redundancy_table(sc, float(cap.max()))
        # Every ceiling's threshold rate from one batched solve.
        cuts = [
            (r_th, _ceiling_cut(table_c, table_r, r_th), rate_threshold(r_th, snr_e))
            for r_th in optimize.re_thresholds([(sc, c) for c in ceilings])
        ]
        parts = workers.map(reduce_one, len(sizes))
    n = sim.trials
    estimates = []
    for sums in zip(*parts):  # one ceiling's sums, in stream order
        mean = math.fsum(p[0] for p in sums) / n
        var = max(math.fsum(p[1] for p in sums) / n - mean * mean, 0.0)
        estimates.append(Estimate(mean=mean, ci_halfwidth=3.0 * math.sqrt(var / n), trials=n))
    return estimates[0] if np.ndim(s_th) == 0 else estimates
