"""Simulation-oracle tests: reproducibility, sampler correctness against the
closed-form kernels, and estimator agreement with the analytic metrics.

Sample sizes are kept at 1e5-2e5 so the whole module stays fast; the full
1e6-trial comparisons run in the acceptance gate.
"""

import math
import sys

import numpy as np
import pytest

import oracles
from fso_secrecy import channel, montecarlo, optimize, secrecy
from fso_secrecy.channel import baseline_scenario
from fso_secrecy.montecarlo import (
    Estimate,
    SimConfig,
    est_fixed_from_outages,
    estimate_est,
    estimate_reliability_outage,
    estimate_sop,
    sample_bob_irradiance,
    sample_eve_irradiance,
)
from fso_secrecy.secrecy import RatePair


def _rng(seed):
    # The samplers under test run on the program's own stream generator.
    return montecarlo.seeded_generator(np.random.SeedSequence(seed))


def _pinned_outages(sc, rates, scheme, sim, jobs=1):
    """The outage estimates of a pinned rate pair: the secrecy outage at
    r_e and, for the fixed scheme, the reliability outage at r_b; the
    adaptive scheme's codeword rate tracks the capacity, so its reliability
    outage is an exact zero."""
    sop = estimate_sop(sc, rates.r_e, sim, jobs=jobs)
    if scheme == "fixed":
        return sop, estimate_reliability_outage(sc, rates.r_b, sim, jobs=jobs)
    return sop, Estimate(mean=0.0, ci_halfwidth=0.0, trials=sim.trials, count=0)


def _pinned_est(sc, rates, scheme, s_th, sim, jobs=1):
    """The Monte-Carlo throughput at a pinned rate pair (for the adaptive
    scheme, at the capacity r_b), as the command line composes it."""
    return est_fixed_from_outages(rates, *_pinned_outages(sc, rates, scheme, sim, jobs), s_th)


# ---------------------------------------------------------------------------
# configuration records
# ---------------------------------------------------------------------------


def test_sim_config_validation():
    sim = SimConfig(trials=10, stream_count=4)
    assert sim.stream_sizes() == [3, 3, 2, 2]
    assert sum(SimConfig(trials=1_000_003, stream_count=16).stream_sizes()) == 1_000_003
    # Streams past the trial count hold no trial and are not listed.
    assert SimConfig(trials=3, stream_count=1_000).stream_sizes() == [1, 1, 1]
    with pytest.raises(ValueError):
        SimConfig(trials=0)
    with pytest.raises(ValueError):
        SimConfig(stream_count=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SimConfig(seed=-1)


def test_estimate_is_frozen():
    e = Estimate(mean=0.5, ci_halfwidth=0.01, trials=100)
    with pytest.raises(Exception):
        e.mean = 0.6


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_estimates_are_bit_reproducible(baseline):
    sim = SimConfig(trials=200_000, seed=42, stream_count=16)
    a = estimate_sop(baseline, 2.0, sim)
    b = estimate_sop(baseline, 2.0, sim)
    assert (a.mean, a.ci_halfwidth) == (b.mean, b.ci_halfwidth)


def test_concurrency_does_not_change_results(baseline):
    sim = SimConfig(trials=200_000, seed=7, stream_count=16)
    serial = estimate_sop(baseline, 2.0, sim, jobs=1)
    threaded = estimate_sop(baseline, 2.0, sim, jobs=8)
    assert (serial.mean, serial.ci_halfwidth) == (threaded.mean, threaded.ci_halfwidth)

    # per-beam outage 0.41: the thinned draws of the second beam matter
    r1 = estimate_reliability_outage(baseline, 3.4, sim, jobs=1)
    assert r1 == estimate_reliability_outage(baseline, 3.4, sim, jobs=8)

    rates = RatePair(3.4, 1.25)
    s1 = _pinned_est(baseline, rates, "fixed", 1.0, sim, jobs=1)
    s8 = _pinned_est(baseline, rates, "fixed", 1.0, sim, jobs=8)
    assert (s1.mean, s1.ci_halfwidth) == (s8.mean, s8.ci_halfwidth)

    a1 = estimate_est(baseline, 0.4, sim, jobs=1)
    a8 = estimate_est(baseline, 0.4, sim, jobs=8)
    assert (a1.mean, a1.ci_halfwidth) == (a8.mean, a8.ci_halfwidth)


@pytest.mark.parametrize("role", [montecarlo._EVE_ROLE, montecarlo._BOB_ROLE])
def test_stream_generators_are_sfc64_seeded_by_spawned_children(role):
    # The seed-to-numbers map is part of the public contract: stream j of a
    # role is SFC64 on child j of the role's child of SeedSequence(seed).
    sim = SimConfig(trials=1_000, seed=12345, stream_count=5)
    rngs = montecarlo._stream_rngs(sim, role)
    children = np.random.SeedSequence(sim.seed).spawn(2)[role].spawn(sim.stream_count)
    assert len(rngs) == sim.stream_count
    for rng, child in zip(rngs, children):
        assert type(rng.bit_generator) is np.random.SFC64
        np.testing.assert_equal(rng.bit_generator.state, np.random.SFC64(child).state)


@pytest.mark.parametrize("role", [montecarlo._EVE_ROLE, montecarlo._BOB_ROLE])
def test_only_the_streams_that_hold_trials_are_spawned(role):
    # Spawning all 1e20 streams would overflow the spawn.  Child j's key
    # does not depend on how many children are spawned, so the streams that
    # hold trials keep their generators.
    sim = SimConfig(trials=3, seed=12345, stream_count=10**20)
    rngs = montecarlo._stream_rngs(sim, role)
    children = np.random.SeedSequence(sim.seed).spawn(2)[role].spawn(5)
    assert len(rngs) == sim.trials
    for rng, child in zip(rngs, children):
        np.testing.assert_equal(rng.bit_generator.state, np.random.SFC64(child).state)


def test_estimators_make_at_most_one_generator_per_trial_and_role(baseline, monkeypatch):
    made = []
    generator = montecarlo.seeded_generator
    monkeypatch.setattr(
        montecarlo, "seeded_generator", lambda seed: made.append(seed) or generator(seed)
    )
    sim = SimConfig(trials=30, seed=3, stream_count=10_000)
    estimate_sop(baseline, 2.0, sim)
    assert len(made) == sim.trials
    made.clear()
    estimate_reliability_outage(baseline, 3.4, sim)
    assert len(made) == sim.trials
    made.clear()
    estimate_est(baseline, 0.4, sim)
    assert len(made) == 2 * sim.trials


@pytest.mark.parametrize("jobs", [1, 2])
def test_streams_past_the_trial_count_leave_every_estimate_unchanged(baseline, jobs):
    # Streams past the trial count hold no trial, so a run with more streams
    # than trials gives the estimates, field for field, of a run with as many
    # streams as trials.
    cases = [(baseline, 3.0), (baseline_scenario(n_a=3, n_b=2), 3.4)]
    estimates = []
    for stream_count in (200, 201, 10_000):
        sim = SimConfig(trials=200, seed=11, stream_count=stream_count)
        estimates.append(
            (
                estimate_sop(baseline, [0.5, 2.0, 4.0], sim, jobs=jobs),
                montecarlo.estimate_reliability_outages(cases, sim, jobs=jobs),
                estimate_est(baseline, [0.2, 0.4, 1.0], sim, jobs=jobs),
            )
        )
    assert estimates[1] == estimates[0] and estimates[2] == estimates[0]


def test_seed_changes_results(baseline):
    base = estimate_sop(baseline, 2.0, SimConfig(trials=50_000, seed=0))
    other = estimate_sop(baseline, 2.0, SimConfig(trials=50_000, seed=1))
    assert base.mean != other.mean


# ---------------------------------------------------------------------------
# scratch buffers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sc",
    [baseline_scenario(), baseline_scenario(sigma_s=0.0), baseline_scenario(n_a=3, n_b=2)],
    ids=["beam-wander", "pointing-free", "three-beams"],
)
def test_samplers_draw_the_same_bits_into_a_caller_buffer(sc):
    work = np.full((3, 1_500), np.nan)
    for sampler in (sample_eve_irradiance, sample_bob_irradiance):
        fresh = sampler(sc, _rng(5), 1_000)
        into = sampler(sc, _rng(5), 1_000, work)
        assert into.base is work and np.shares_memory(into, work[0, :1_000])
        assert into.tobytes() == fresh.tobytes()
    # rows given as a sequence of arrays: the draws land in the first
    into = sample_eve_irradiance(sc, _rng(5), 1_000, (work[2], work[1]))
    assert np.shares_memory(into, work[2, :1_000])
    assert into.tobytes() == sample_eve_irradiance(sc, _rng(5), 1_000).tobytes()


def _record_work(monkeypatch):
    """Wrap the two samplers and the beam sampler the thinned estimator
    calls; each call appends (name, the rows of the ``work`` it was given)."""
    seen = []
    for name in ("sample_eve_irradiance", "sample_bob_irradiance", "_sample_beam"):
        real = getattr(montecarlo, name)

        def wrapped(*args, _real=real, _name=name):
            seen.append((_name, list(args[-1])))
            return _real(*args)

        monkeypatch.setattr(montecarlo, name, wrapped)
    return seen


def _bases(rows):
    return {id(r.base) for r in rows}


@pytest.mark.parametrize("jobs, most", [(1, 1), (2, 2)])
def test_streams_draw_into_one_scratch_set_per_thread(monkeypatch, jobs, most):
    # 16 streams: at --jobs 1 every stream draws into the one scratch set,
    # and with two threads into at most two.
    seen = _record_work(monkeypatch)
    sc = baseline_scenario(n_a=3, n_b=2, n_e=2)
    sim = SimConfig(trials=16_000, seed=5, stream_count=16)

    def calls(name):
        return [work for n, work in seen if n == name]

    def assert_shared(works):
        assert len(_bases(r for work in works for r in work)) <= most
        if jobs == 1:
            for position in zip(*works):
                assert all(np.shares_memory(r, position[0]) for r in position)

    estimate_sop(sc, [1.0, 2.0], sim, jobs=jobs)
    works = calls("sample_eve_irradiance")
    assert len(works) == 16
    assert_shared(works)

    # beams 2 and 3 are drawn for the trials still in outage: thinned slices
    seen.clear()
    estimate_reliability_outage(sc, 3.4, sim, jobs=jobs)
    works = calls("_sample_beam")
    assert len(works) == 2 * 16
    assert_shared(works)

    # the draws themselves land in two trial-length arrays, one stream's
    # slice after another; only the samplers' other rows are scratch
    seen.clear()
    estimate_est(sc, [0.2, 0.4], sim, jobs=jobs)
    for name in ("sample_bob_irradiance", "sample_eve_irradiance"):
        works = calls(name)
        assert len(works) == 16
        assert_shared([work[1:] for work in works])
        drawn = [work[0] for work in works]
        assert len(_bases(drawn)) == 1 and drawn[0].base.size == sim.trials
        assert sum(r.size for r in drawn) == sim.trials
        assert not any(np.shares_memory(a, b) for a, b in zip(drawn, drawn[1:]))


@pytest.mark.parametrize("jobs", [2, 3, 8])
def test_uneven_streams_give_equal_estimates_on_any_thread_count(jobs):
    # 20,003 trials on 7 streams: streams of 2,858 and 2,857 trials share
    # one scratch set per thread, the thinned beams slices of it.  A switch
    # interval of 1 us interleaves the threads as often as it can, so a
    # scratch row two streams in flight shared would move a count.
    sim = SimConfig(trials=20_003, seed=17, stream_count=7)
    sc = baseline_scenario(n_a=3, n_b=2, n_e=2)
    cases = [(sc, 3.4), (baseline_scenario(n_a=4, n_b=1), 2.5), (baseline_scenario(), 0.0)]
    runs = (
        lambda j: estimate_sop(sc, [0.5, 1.0, 2.0], sim, jobs=j),
        lambda j: montecarlo.estimate_reliability_outages(cases, sim, jobs=j),
        lambda j: estimate_est(sc, [0.2, 0.4, 1.0], sim, jobs=j),
    )
    serial = [run(1) for run in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [run(jobs) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


# ---------------------------------------------------------------------------
# gamma variate generator (numpy's standard_gamma, as the samplers call it)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0.7, 1.0, 2.3, 6.1])
def test_gamma_variates_moments(k):
    n = 200_000
    draws = _rng(123).standard_gamma(k, n)
    assert np.all(draws > 0.0)
    mean_tol = 3.0 * math.sqrt(k / n)
    assert abs(float(draws.mean()) - k) <= mean_tol
    # variance of the sample variance for a gamma shape k, unit scale
    var_tol = 3.0 * math.sqrt((2.0 * k * k + 6.0 * k) / n)
    assert abs(float(draws.var()) - k) <= var_tol


# ---------------------------------------------------------------------------
# irradiance samplers
# ---------------------------------------------------------------------------


def test_eve_sampler_pointing_free_has_unit_collection(pointing_free):
    # with no beam wander the sampler must consume no uniforms for the
    # collection factor and return exactly the turbulence product
    link = channel.eve_link(pointing_free)
    alpha, beta = link.turb.alpha, link.turb.beta_single
    n = 1000
    used = _rng(5)
    draws = sample_eve_irradiance(pointing_free, used, n)
    rng = _rng(5)
    x = rng.standard_gamma(alpha, n)
    x *= rng.standard_gamma(pointing_free.nodes.n_e * beta, n)
    want = x / (alpha * beta)
    np.testing.assert_array_equal(draws, want)
    np.testing.assert_equal(used.bit_generator.state, rng.bit_generator.state)


def test_eve_sampler_mean(baseline, pointing_free):
    n = 400_000
    n_e = baseline.nodes.n_e
    free = sample_eve_irradiance(pointing_free, _rng(11), n) / n_e
    assert abs(float(free.mean()) - 1.0) <= 3.0 * float(free.std()) / math.sqrt(n)

    xi2 = channel.eve_link(baseline).pointing.xi ** 2
    lossy = sample_eve_irradiance(baseline, _rng(11), n) / n_e
    want = xi2 / (xi2 + 1.0)  # mean collection fraction
    assert abs(float(lossy.mean()) - want) <= 3.0 * float(lossy.std()) / math.sqrt(n)


def test_eve_sampler_matches_combined_cdf(baseline):
    le = channel.eve_link(baseline)
    n = 200_000
    draws = sample_eve_irradiance(baseline, _rng(1017), n) / baseline.nodes.n_e
    for q in np.linspace(0.05, 0.95, 20):
        x = float(np.quantile(draws, q))
        f = channel.ggp_cdf(le.turb.alpha, le.beta_agg, le.pointing.xi, x)[0]
        emp = float(np.mean(draws <= x))
        assert abs(f - emp) <= 3.0 * math.sqrt(f * (1.0 - f) / n) + 1e-4


def test_bob_sampler_matches_turbulence_cdf():
    sc = baseline_scenario(n_a=1, n_b=2)
    lb = channel.bob_link(sc)
    n = 200_000
    draws = sample_bob_irradiance(sc, _rng(19), n) / sc.nodes.n_b
    for q in np.linspace(0.05, 0.95, 20):
        x = float(np.quantile(draws, q))
        f = channel.gg_cdf(lb.turb.alpha, lb.beta_agg, x)[0]
        emp = float(np.mean(draws <= x))
        assert abs(f - emp) <= 3.0 * math.sqrt(f * (1.0 - f) / n) + 1e-4


def test_bob_sampler_selection_squares_cdf():
    sc = baseline_scenario(n_a=2, n_b=1)
    lb = channel.bob_link(sc)
    n = 200_000
    draws = sample_bob_irradiance(sc, _rng(23), n)
    assert np.all(draws > 0.0)
    for q in np.linspace(0.05, 0.95, 20):
        x = float(np.quantile(draws, q))
        f = channel.gg_cdf(lb.turb.alpha, lb.beta_agg, x)[0] ** 2
        emp = float(np.mean(draws <= x))
        assert abs(f - emp) <= 3.0 * math.sqrt(f * (1.0 - f) / n) + 1e-4


def _assert_same_outages(draws, reference, quantiles=(0.1, 0.5, 0.9)):
    # Two-sample binomial check at three thresholds: the outage fractions of
    # the two samples agree within 3 sigma of their pooled proportion.
    for q in quantiles:
        thr = float(np.quantile(reference, q))
        hits = int(np.count_nonzero(draws <= thr))
        hits_ref = int(np.count_nonzero(reference <= thr))
        pooled = (hits + hits_ref) / (draws.size + reference.size)
        bound = 3.0 * math.sqrt(pooled * (1.0 - pooled) * (1 / draws.size + 1 / reference.size))
        assert abs(hits / draws.size - hits_ref / reference.size) <= bound, q


@pytest.mark.parametrize("n_b", [2, 4])
def test_bob_sampler_matches_per_aperture_draws(n_b):
    # The sampler draws a beam's aperture sum as one Gamma(n_b * beta); the
    # oracle draws the n_b factors one by one.
    sc = baseline_scenario(n_a=2, n_b=n_b)
    n = 100_000
    draws = sample_bob_irradiance(sc, _rng(61), n)
    _assert_same_outages(draws, oracles.sample_bob_per_aperture(sc, _rng(62), n))


@pytest.mark.parametrize("sigma_s", [0.0, 2.0])
@pytest.mark.parametrize("n_e", [2, 4])
def test_eve_sampler_matches_per_aperture_draws(n_e, sigma_s):
    sc = baseline_scenario(n_e=n_e, sigma_s=sigma_s)
    n = 100_000
    draws = sample_eve_irradiance(sc, _rng(71), n)
    _assert_same_outages(draws, oracles.sample_eve_per_aperture(sc, _rng(72), n))


# ---------------------------------------------------------------------------
# outage estimators
# ---------------------------------------------------------------------------


def test_estimate_sop_zero_rate_is_certain(baseline):
    e = estimate_sop(baseline, 0.0, SimConfig(trials=5_000))
    assert e.mean == 1.0
    assert e.trials == 5_000
    with pytest.raises(ValueError):
        estimate_sop(baseline, -0.5, SimConfig(trials=10))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("jobs", [1, 2])
def test_estimate_sop_threshold_vector_matches_scalar_calls(baseline, seed, jobs):
    sim = SimConfig(trials=50_000, seed=seed)
    rates = [0.5, 1.0, 2.0, 4.0]
    vector = estimate_sop(baseline, rates, sim, jobs=jobs)
    assert vector == [estimate_sop(baseline, r, sim, jobs=jobs) for r in rates]


def test_estimate_sop_threshold_vector_rejects_negative_rate(baseline):
    sim = SimConfig(trials=10)
    for rates in ([-0.5], [0.5, 1.0, -1.0], [-2.0, 1.0]):
        with pytest.raises(ValueError):
            estimate_sop(baseline, rates, sim)


def test_estimate_sop_matches_closed_form(baseline):
    sim = SimConfig(trials=200_000, seed=3)
    for r_e in (1.0, 2.0, 4.0):
        e = estimate_sop(baseline, r_e, sim)
        assert abs(e.mean - secrecy.sop(baseline, r_e)[0]) <= e.ci_halfwidth + 1e-4


def test_estimate_sop_random_scenarios():
    rnd = np.random.default_rng(2026)
    for _ in range(5):
        sc = baseline_scenario(
            n_e=int(rnd.integers(1, 4)),
            sigma_s=float(rnd.uniform(0.5, 3.0)),
            gamma0=float(rnd.uniform(5e2, 5e4)),
        )
        r_e = float(rnd.uniform(0.3, 3.0))
        e = estimate_sop(sc, r_e, SimConfig(trials=100_000, seed=int(rnd.integers(1 << 30))))
        assert abs(e.mean - secrecy.sop(sc, r_e)[0]) <= e.ci_halfwidth + 1e-4


def test_ci_halfwidth_scales_with_trials(baseline):
    small = estimate_sop(baseline, 2.0, SimConfig(trials=100_000, seed=9))
    big = estimate_sop(baseline, 2.0, SimConfig(trials=200_000, seed=9))
    assert big.ci_halfwidth == pytest.approx(small.ci_halfwidth / math.sqrt(2.0), rel=0.05)


def test_estimate_reliability_outage(baseline):
    assert estimate_reliability_outage(baseline, 0.0, SimConfig(trials=5_000)).mean == 0.0
    sim = SimConfig(trials=200_000, seed=13)
    e = estimate_reliability_outage(baseline, 3.0, sim)
    assert abs(e.mean - secrecy.reliability_outage(baseline, 3.0)[0]) <= e.ci_halfwidth + 1e-4


@pytest.mark.parametrize("n_a", [2, 4])
@pytest.mark.parametrize(("n_b", "r_b"), [(1, 3.4), (2, 4.5)])
def test_thinned_reliability_outage_matches_selected_beam_draws(n_a, n_b, r_b):
    # The estimator draws beam i + 1 only for the trials still in outage
    # after beam i; thresholding the strongest of n_a full beams on an
    # independent generator counts the same event.  The per-beam outage
    # is 0.41 (n_b = 1) and 0.46 (n_b = 2), so every beam decides trials.
    sc = baseline_scenario(n_a=n_a, n_b=n_b)
    per_beam = secrecy.reliability_outage(sc, r_b)[0] ** (1.0 / n_a)
    assert 0.3 <= per_beam <= 0.6
    n = 200_000
    thinned = estimate_reliability_outage(sc, r_b, SimConfig(trials=n, seed=83))
    thr = (2.0**r_b - 1.0) / (sc.nodes.gamma0 * channel.bob_link(sc).pointing.a0)
    p_full = np.count_nonzero(sample_bob_irradiance(sc, _rng(84), n) <= thr) / n
    p = thinned.mean
    sigma = math.sqrt((p * (1.0 - p) + p_full * (1.0 - p_full)) / n)
    assert abs(p - p_full) <= 3.0 * sigma


class _CountingRng:
    """A generator that adds the size of every ``standard_gamma`` call to a
    shared tally and passes everything else through, ``out`` included."""

    def __init__(self, rng, tally):
        self._rng = rng
        self._tally = tally

    def standard_gamma(self, shape, size, out=None):
        self._tally[0] += size
        return self._rng.standard_gamma(shape, size, out=out)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_reliability_outage_draws_only_undecided_beams(monkeypatch):
    # Four beams, per-beam outage 4e-4 at r_b = 3: nearly every trial leaves
    # the outage event at its first beam, so Bob's gamma variates per trial
    # are about 2, not the 2 * n_a = 8 of drawing every beam.
    tally = [0]
    stream_rngs = montecarlo._stream_rngs
    monkeypatch.setattr(
        montecarlo,
        "_stream_rngs",
        lambda sim, role: [_CountingRng(g, tally) for g in stream_rngs(sim, role)],
    )
    sc = baseline_scenario(n_a=4, n_b=4, n_e=4)
    sim = SimConfig(trials=100_000, seed=3)
    estimate_reliability_outage(sc, 3.0, sim)
    assert 2.0 <= tally[0] / sim.trials <= 2.1


def _reliability_outage_on_its_own(sc, r_b, sim):
    """The reliability outage of one case, drawn on streams of its own: each
    stream thins the case's beams with nothing shared."""
    link = channel.bob_link(sc)
    thr = secrecy.rate_threshold(r_b, sc.nodes.gamma0 * link.pointing.a0)
    hits = []
    for rng, left in zip(montecarlo._stream_rngs(sim, montecarlo._BOB_ROLE), sim.stream_sizes()):
        for _ in range(sc.nodes.n_a):
            beam = montecarlo._sample_beam(link, sc.nodes.n_b, rng, left)
            left = int(np.count_nonzero(beam <= thr))
        hits.append(left)
    return montecarlo._binomial_estimate(hits, sim)


# n_a 1-4 on two large-scale shapes (d_b 1000 and 2500 m), with shared and
# distinct small-scale shapes, a duplicate case and a zero rate.
_SHARED_CASES = [
    (baseline_scenario(n_a=n_a, n_b=n_b, d_b=d_b), r_b)
    for d_b in (1000.0, 2500.0)
    for n_a, n_b, r_b in ((1, 1, 3.0), (2, 1, 3.4), (3, 2, 4.0), (4, 4, 5.0), (2, 1, 0.0))
] + [(baseline_scenario(n_a=2, n_b=1), 3.4)]


@pytest.mark.parametrize("jobs", [1, 2, 8])
@pytest.mark.parametrize(("trials", "stream_count"), [(20_000, 16), (20_003, 7)])
def test_shared_reliability_draws_equal_the_single_calls(jobs, trials, stream_count):
    sim = SimConfig(trials=trials, seed=29, stream_count=stream_count)
    shared = montecarlo.estimate_reliability_outages(_SHARED_CASES, sim, jobs=jobs)
    assert len(shared) == len(_SHARED_CASES)
    for (sc, r_b), est in zip(_SHARED_CASES, shared):
        assert est == estimate_reliability_outage(sc, r_b, sim, jobs=jobs)
        assert est == _reliability_outage_on_its_own(sc, r_b, sim)
    assert shared[-1] == shared[1]
    assert shared[4].count == shared[9].count == 0


def test_reliability_outage_over_rates_equals_the_float_calls(baseline):
    sim = SimConfig(trials=20_000, seed=31)
    rates = [3.4, 0.0, 2.0, 3.4]
    got = estimate_reliability_outage(baseline, rates, sim)
    assert got == [estimate_reliability_outage(baseline, r, sim) for r in rates]


def test_shared_reliability_draws_reject_a_negative_rate_before_drawing(baseline, monkeypatch):
    def no_streams(sim, role):
        raise AssertionError("streams were seeded")

    monkeypatch.setattr(montecarlo, "_stream_rngs", no_streams)
    for cases in ([(baseline, 3.0), (baseline, -0.5)], [(baseline, -1e-12)]):
        with pytest.raises(ValueError, match="rates must be non-negative"):
            montecarlo.estimate_reliability_outages(cases, SimConfig(trials=10))


def test_validate_draws_each_shared_variate_once(tmp_path, monkeypatch):
    # validate's three reliability cases (n = 1, 2, 4 at r_b = 3) and the
    # est_fixed case (the baseline at r_b = 3.4) share every stream's first
    # Gamma(alpha) draw, and the n = 1 and baseline cases (both n_b = 1) the
    # whole first beam: about 4.86 Bob gamma variates per trial, where four
    # runs of their own draw about 8.86.  With the eavesdropper's 2, the
    # run draws about 6.86 per trial, not 10.86.
    from fso_secrecy import cli

    tally = [0]
    stream_rngs = montecarlo._stream_rngs
    monkeypatch.setattr(
        montecarlo,
        "_stream_rngs",
        lambda sim, role: [_CountingRng(g, tally) for g in stream_rngs(sim, role)],
    )
    trials = 100_000
    argv = ["validate", "--trials", str(trials), "--seed", "7", "--out", str(tmp_path / "v.txt")]
    assert cli.main(argv) == 0
    assert 6.82 <= tally[0] / trials <= 6.90

    tally[0] = 0
    sim = SimConfig(trials=trials, seed=7)
    baseline = baseline_scenario()
    estimate_sop(baseline, [0.5, 1.0, 2.0, 4.0, 1.2558717], sim)
    for n in (1, 2, 4):
        estimate_reliability_outage(baseline_scenario(n_a=n, n_b=n, n_e=n), 3.0, sim)
    estimate_reliability_outage(baseline, 3.4, sim)
    assert 10.82 <= tally[0] / trials <= 10.90


def test_estimate_reliability_outage_monotone_trend(baseline):
    sim = SimConfig(trials=50_000, seed=21)
    grid = np.linspace(0.5, 5.0, 10)
    results = [estimate_reliability_outage(baseline, float(r), sim) for r in grid]
    for lo, hi in zip(results, results[1:]):
        assert hi.mean >= lo.mean - (lo.ci_halfwidth + hi.ci_halfwidth)


def test_degenerate_counts_keep_nonzero_halfwidth(baseline):
    # far tail: zero hits in a small run must still carry uncertainty
    e = estimate_sop(baseline, 12.0, SimConfig(trials=1_000))
    assert e.mean == 0.0
    assert e.ci_halfwidth >= 3.0 / 1_000


# ---------------------------------------------------------------------------
# throughput estimator
# ---------------------------------------------------------------------------


def test_estimate_est_argument_validation(baseline):
    sim = SimConfig(trials=10)
    with pytest.raises(ValueError):
        estimate_est(baseline, 0.0, sim)
    with pytest.raises(ValueError):
        estimate_est(baseline, 1.5, sim)


def test_estimate_est_fixed_zero_secrecy_rate(baseline):
    e = _pinned_est(baseline, RatePair(2.0, 2.0), "fixed", 1.0, SimConfig(trials=5_000))
    assert e.mean == 0.0


def test_estimate_est_fixed_frozen_values(baseline):
    # Bit-level regression values of the fixed-scheme estimator on SFC64
    # streams.  Both sit inside their halfwidth of the closed form, 0.613937
    # and 0.231026 (test_estimate_est_fixed_matches_closed_form checks that
    # agreement at 200,000 trials).
    sim = SimConfig(trials=50_000, seed=5, stream_count=4)
    e = _pinned_est(baseline, RatePair(3.4, 1.2558717), "fixed", 1.0, sim)
    assert (e.mean, e.ci_halfwidth, e.trials) == (0.6106955067302674, 0.011924665920830715, 50_000)
    e = _pinned_est(baseline, RatePair(2.5, 2.0), "fixed", 1.0, sim)
    assert (e.mean, e.ci_halfwidth) == (0.23060929759999999, 0.0033286364147440293)
    e = _pinned_est(baseline, RatePair(3.4, 1.2558717), "fixed", 0.3, sim)
    assert (e.mean, e.ci_halfwidth) == (0.0, 0.0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_est_fixed_from_a_shared_eavesdropper_draw(baseline, jobs):
    # An SOP threshold vector's draw serves the fixed-scheme estimate too.
    sim = SimConfig(trials=50_000, seed=8)
    rates = RatePair(3.4, 1.2558717)
    sop_low, sop_at_re = estimate_sop(baseline, [0.5, rates.r_e], sim, jobs=jobs)
    assert sop_at_re.count == round(sop_at_re.mean * sim.trials)
    rel = estimate_reliability_outage(baseline, rates.r_b, sim, jobs=jobs)
    shared = est_fixed_from_outages(rates, sop_at_re, rel, 1.0)
    assert shared == _pinned_est(baseline, rates, "fixed", 1.0, sim, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "rates, scheme",
    [(None, "adaptive"), (RatePair(6.0, 2.0), "adaptive"), (RatePair(3.4, 1.2558717), "fixed")],
    ids=["capacity-averaged", "pinned-capacity", "fixed"],
)
def test_estimate_est_over_ceilings_equals_the_float_calls(baseline, rates, scheme, jobs):
    # The draws do not depend on the ceiling: one draw serves every ceiling,
    # and each estimate is the float call's, field for field.  A pinned rate
    # pair's estimates come from one pair of outage estimates.
    sim = SimConfig(trials=3_000, seed=13, stream_count=5)
    ceilings = [1.0, 0.6, 0.4, 0.2, 0.05, 0.4]
    if rates is None:
        got = estimate_est(baseline, ceilings, sim, jobs=jobs)
        want = [estimate_est(baseline, s_th, sim, jobs=jobs) for s_th in ceilings]
    else:
        outages = _pinned_outages(baseline, rates, scheme, sim, jobs)
        got = [est_fixed_from_outages(rates, *outages, s_th) for s_th in ceilings]
        want = [_pinned_est(baseline, rates, scheme, s_th, sim, jobs) for s_th in ceilings]
    assert got == want
    assert len({e.mean for e in got}) >= 2


def test_capacity_averaged_estimate_draws_once_over_ceilings(baseline, monkeypatch):
    calls = []
    for name in ("sample_bob_irradiance", "sample_eve_irradiance", "_adaptive_redundancy_table"):
        real = getattr(montecarlo, name)
        monkeypatch.setattr(
            montecarlo, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    sim = SimConfig(trials=1_000, seed=2, stream_count=4)
    assert len(estimate_est(baseline, (0.2, 0.4, 1.0), sim)) == 3
    assert sorted(calls) == ["_adaptive_redundancy_table"] + ["sample_bob_irradiance"] * 4 + [
        "sample_eve_irradiance"
    ] * 4
    with pytest.raises(ValueError):
        estimate_est(baseline, [0.4, 0.0], sim)


def test_estimate_est_fixed_matches_closed_form(baseline):
    sim = SimConfig(trials=200_000, seed=31)
    pairs = [
        RatePair(3.4, 1.2558717),
        RatePair(3.0, 1.0),
        RatePair(2.5, 0.5),
        RatePair(4.0, 2.0),
        RatePair(5.0, 3.5),
    ]
    for rates in pairs:
        e = _pinned_est(baseline, rates, "fixed", 1.0, sim)
        want = secrecy.est_fixed(baseline, rates, secrecy.SecrecyConstraint(1.0))
        assert abs(e.mean - want) <= e.ci_halfwidth + 1e-3


def test_estimate_est_adaptive_dominates_fixed_optimum(baseline):
    sim = SimConfig(trials=200_000, seed=37)
    for s_th in (0.4, 0.2):
        adaptive = estimate_est(baseline, s_th, sim)
        fixed = optimize.fixed_optimal(baseline, s_th).est
        assert adaptive.mean - adaptive.ci_halfwidth >= fixed


def test_estimate_est_adaptive_pinned_rate_mode(baseline):
    # Pinning the rates reproduces the closed-form curve point at the pinned
    # capacity, (c_b - r_e)(1 - S(r_e)), from the eavesdropper's draw alone.
    sim = SimConfig(trials=200_000, seed=41)
    for c_b, r_e in [(6.0, 0.5), (4.0, 2.0), (30.0, 2.0)]:
        e = _pinned_est(baseline, RatePair(c_b, r_e), "adaptive", 1.0, sim)
        want = secrecy.est_adaptive(baseline, c_b, r_e, secrecy.SecrecyConstraint(1.0))
        assert abs(e.mean - want) <= e.ci_halfwidth
        sop = estimate_sop(baseline, r_e, sim)
        assert e.mean == (c_b - r_e) * ((sim.trials - sop.count) / sim.trials)
        assert e.ci_halfwidth == pytest.approx((c_b - r_e) * sop.ci_halfwidth, rel=1e-12, abs=0)


def test_estimate_est_adaptive_pinned_rate_mode_gates_at_the_ceiling(baseline):
    # S(0.5) is about 0.79: above a 0.4 ceiling the point delivers nothing,
    # in the closed form and in the estimate; it is not floored at r_th.
    sim = SimConfig(trials=100_000, seed=41)
    assert secrecy.sop(baseline, 0.5)[0] > 0.4
    assert secrecy.est_adaptive(baseline, 6.0, 0.5, secrecy.SecrecyConstraint(0.4)) == 0.0
    e = _pinned_est(baseline, RatePair(6.0, 0.5), "adaptive", 0.4, sim)
    assert (e.mean, e.ci_halfwidth) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# the capacity-averaged adaptive estimator against full interpolation
# ---------------------------------------------------------------------------


def _assert_matches_full_interpolation(sc, s_th, sim, jobs=1):
    got = estimate_est(sc, s_th, sim, jobs=jobs)
    want = oracles.est_adaptive_full_interp(sc, s_th, sim)
    assert (got.mean, got.ci_halfwidth, got.trials) == (want.mean, want.ci_halfwidth, want.trials)
    return got


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("s_th", [0.2, 0.4, 1.0])
def test_adaptive_est_matches_full_interpolation(baseline, s_th, jobs):
    # 12,500 trials per stream: np.interp precomputes the table's slopes
    sim = SimConfig(trials=200_000, seed=11, stream_count=16)
    _assert_matches_full_interpolation(baseline, s_th, sim, jobs)


def test_adaptive_est_cut_decides_most_trials_under_a_ceiling(baseline):
    # At s_th 0.4 the cut sits a table row under the capacity at r_th, above
    # Bob's median capacity: most trials never reach np.interp.
    r_th = optimize.re_threshold(baseline, 0.4)
    table_c, table_r = montecarlo._adaptive_redundancy_table(baseline, 20.0)
    c_cut = montecarlo._ceiling_cut(table_c, table_r, r_th)
    assert np.interp(c_cut, table_c, table_r) < r_th
    scale = baseline.nodes.gamma0 * channel.bob_link(baseline).pointing.a0
    caps = np.log2(1.0 + scale * sample_bob_irradiance(baseline, _rng(5), 100_000))
    assert np.mean(caps < c_cut) > 0.9
    # no ceiling: r_th = 0 lies under the table's first row, so no cut
    r_free = optimize.re_threshold(baseline, 1.0)
    assert montecarlo._ceiling_cut(table_c, table_r, r_free) == -math.inf


@pytest.mark.parametrize(
    "trials, stream_count",
    [(20_000, 16), (3_000, 7), (5, 8)],
    ids=["short-streams", "uneven-short-streams", "empty-streams"],
)
def test_adaptive_est_matches_full_interpolation_on_short_streams(baseline, trials, stream_count):
    # Streams under the table's 2,048 rows make np.interp form each slope on
    # the fly; with more streams than trials some streams are empty.
    sim = SimConfig(trials=trials, seed=3, stream_count=stream_count)
    _assert_matches_full_interpolation(baseline, 0.4, sim)


def test_adaptive_est_matches_full_interpolation_with_r_th_above_every_capacity(
    baseline, monkeypatch
):
    monkeypatch.setattr(optimize, "re_thresholds", lambda keys: [500.0] * len(keys))
    sim = SimConfig(trials=20_000, seed=3)
    got = _assert_matches_full_interpolation(baseline, 0.4, sim)
    assert got.mean == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("tail", ["tied", "inf"])
def test_adaptive_est_matches_full_interpolation_with_ties_at_the_cut(
    baseline, monkeypatch, seed, tail
):
    # np.maximum.accumulate ties rows, and sends rows past a flat outage to
    # inf.  "tied": rows k - 1 .. k + 1 sit at the largest drawn capacity,
    # so that trial lands exactly on the cut, where np.interp reads row
    # k + 1 above r_th.  "inf": the cut itself is inf, and every finite
    # capacity is below it.
    r_th = optimize.re_threshold(baseline, 0.4)
    real_table = montecarlo._adaptive_redundancy_table

    def table_with_tail(sc, cap_max):
        table_c, table_r = real_table(sc, cap_max)
        k = int(np.searchsorted(table_r, r_th, side="right")) - 1
        if tail == "tied":
            table_c[k - 1 : k + 2] = cap_max
            table_c[k + 2 :] = np.inf
        else:
            table_c[k - 1 :] = np.inf
        return table_c, table_r

    monkeypatch.setattr(montecarlo, "_adaptive_redundancy_table", table_with_tail)
    sim = SimConfig(trials=20_000, seed=seed, stream_count=4)
    _assert_matches_full_interpolation(baseline, 0.4, sim)


@pytest.mark.parametrize(
    "trials, stream_count", [(200_000, 16), (100_000, 100)], ids=["long-streams", "short-streams"]
)
def test_adaptive_est_equals_the_where_select_to_the_bit(trials, stream_count):
    # Below the cut each trial takes cap - r_th times its mask, plus 0.0: the
    # bits of a full-length np.where select, a masked negative difference
    # included.  At s_th 1.0 the threshold rate is 0, so the cut is empty;
    # 100 streams of 1,000 trials lie under the table's 2,048 rows.
    sc = baseline_scenario(n_a=2, n_b=2, n_e=2)
    sim = SimConfig(trials=trials, seed=7, stream_count=stream_count)
    ceilings = [0.2, 0.4, 1.0]
    got = estimate_est(sc, ceilings, sim)
    want = [oracles.est_adaptive_cut_select(sc, s_th, sim) for s_th in ceilings]
    assert [(e.mean.hex(), e.ci_halfwidth.hex(), e.trials) for e in got] == [
        (e.mean.hex(), e.ci_halfwidth.hex(), e.trials) for e in want
    ]


def test_est_fixed_from_outages_floors_an_extreme_count_at_the_rule_of_three():
    # A count of 0 or n gives a factor a plug-in variance of 0; its estimate's
    # rule-of-three halfwidth 3/n stands in, and the product of the two
    # variances keeps the halfwidth off 0 where both success rates are 0.
    n, rate = 50, 2.0
    rates = RatePair(3.0, 1.0)
    sim = SimConfig(trials=n, stream_count=1)
    none, some, every = (montecarlo._binomial_estimate([k], sim) for k in (0, 10, n))
    exact_zero = Estimate(mean=0.0, ci_halfwidth=0.0, trials=n, count=0)

    # neither count extreme: the delta method, bit for bit
    p = (n - 10) / n
    e = est_fixed_from_outages(rates, some, some, 1.0)
    var = rate * rate * (p * p * p * (1.0 - p) + p * p * p * (1.0 - p)) / n
    assert e.ci_halfwidth == 3.0 * math.sqrt(var)
    # an exact zero reliability outage (the adaptive scheme) adds nothing
    e = est_fixed_from_outages(rates, some, exact_zero, 1.0)
    assert e.ci_halfwidth == 3.0 * math.sqrt(rate * rate * (p * (1.0 - p)) / n)

    floor = (1.0 / n) ** 2
    cases = [
        (every, some, rate**2 * (0.8**2 * floor + 0.8 * 0.2 / n * floor)),
        (some, none, rate**2 * (0.8 * 0.2 / n + 0.8**2 * floor + 0.8 * 0.2 / n * floor)),
        (every, every, rate**2 * floor * floor),
    ]
    for sop, rel, var in cases:
        e = est_fixed_from_outages(rates, sop, rel, 1.0)
        assert e.ci_halfwidth == pytest.approx(3.0 * math.sqrt(var), rel=1e-12)
        assert e.ci_halfwidth > 0.0
