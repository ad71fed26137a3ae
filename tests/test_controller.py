"""Controller backlog, queue, and latency-curve tests."""

import math
import statistics
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdnmanet.controller import (
    ControllerConfig,
    fluid_backlog,
    max_latency_model,
    simulate_queue,
)

from reference_run import list_based_simulate_queue
from test_simulator import r_squared


# ------------------------------------------------------------- fluid backlog

def test_fluid_backlog_reference_point():
    cfg = ControllerConfig(capacity_mu=10.0, event_rate_lambda=20.0, sim_duration_s=30.0)
    assert fluid_backlog(170, cfg) == 101_700.0


def test_fluid_backlog_empty_network():
    assert fluid_backlog(0, ControllerConfig()) == 0.0


def test_fluid_backlog_underload_is_zero():
    cfg = ControllerConfig(capacity_mu=10.0, event_rate_lambda=0.1)
    assert fluid_backlog(50, cfg) == 0.0  # 5 events/s against 10/s capacity


def test_fluid_backlog_linear_in_n_when_overloaded():
    cfg = ControllerConfig()
    ns = list(range(40, 201, 30))
    values = [fluid_backlog(n, cfg) for n in ns]
    assert r_squared(ns, values) >= 0.999


# --------------------------------------------------------------------- queue

def test_simulate_queue_empty_network_stays_empty():
    outcome = simulate_queue(0, ControllerConfig(), seed=1)
    assert outcome.final_backlog == 0
    assert outcome.served_latencies_ms == ()


def test_simulate_queue_serves_at_most_capacity_times_horizon():
    cfg = ControllerConfig(sim_duration_s=5.0)
    outcome = simulate_queue(3, cfg, seed=2)
    assert len(outcome.served_latencies_ms) <= cfg.capacity_mu * cfg.sim_duration_s
    assert outcome.final_backlog > 0  # 60 requests/s against 10/s


def test_simulate_queue_matches_fluid_limit_in_overload():
    cfg = ControllerConfig()
    expected = fluid_backlog(170, cfg)
    finals = [simulate_queue(170, cfg, seed=s).final_backlog for s in range(10)]
    mean_final = sum(finals) / len(finals)
    assert abs(mean_final - expected) / expected <= 0.02
    for final in finals:
        assert abs(final - expected) / expected <= 0.02


def test_final_backlog_within_one_sample_interval_matches_fluid_bound():
    cfg = ControllerConfig(sim_duration_s=0.04)  # shorter than any one service
    expected = fluid_backlog(170, cfg)  # 135.6 requests
    # Six standard deviations of the Poisson arrival count, plus the request in service.
    tolerance = 6.0 * math.sqrt((170 * cfg.event_rate_lambda + cfg.capacity_mu) * 0.04) + 3.0
    for s in range(10):
        assert abs(simulate_queue(170, cfg, seed=s).final_backlog - expected) <= tolerance


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 300),
    mu=st.floats(0.5, 500.0),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.0, 20.0)),
    horizon=st.one_of(st.sampled_from([0.04, 0.25, 30.05]), st.floats(0.001, 0.099),
                      st.floats(0.1, 12.0)),
    seed=st.integers(0, 2**32),
)
@example(n=170, mu=10.0, lam=20.0, horizon=30.05, seed=5)  # the reference overload
@example(n=170, mu=10.0, lam=20.0, horizon=0.04, seed=5)  # ends within the first service
@example(n=10, mu=10.0, lam=0.5, horizon=30.05, seed=3)  # underload: most requests served
@example(n=10, mu=500.0, lam=5.0, horizon=0.25, seed=1)  # light load: every request served
@example(n=50, mu=10.0, lam=0.0, horizon=30.0, seed=1)  # no events at all
@example(n=0, mu=10.0, lam=20.0, horizon=30.0, seed=1)  # no nodes
def test_queue_serves_exactly_what_the_exact_queue_serves(n, mu, lam, horizon, seed):
    cfg = ControllerConfig(capacity_mu=mu, event_rate_lambda=lam, sim_duration_s=horizon)
    fast, exact = simulate_queue(n, cfg, seed), list_based_simulate_queue(n, cfg, seed)
    assert fast.served_latencies_ms == exact.served_latencies_ms
    # A request is left over exactly when one completes past the horizon.
    assert (fast.final_backlog == 0) == (exact.final_backlog == 0)
    if exact.final_backlog == 0:
        assert fast == exact


@pytest.mark.parametrize("horizon", [0.04, 0.25, 30.05])
def test_final_backlog_is_the_queue_at_the_horizon(horizon):
    # 50 requests/s against 500/s: in most runs every request completes by
    # the horizon, no Poisson count is drawn, and the outcome is the exact
    # queue's, bit for bit.
    cfg = ControllerConfig(capacity_mu=500.0, event_rate_lambda=5.0, sim_duration_s=horizon)
    served_all = 0
    for seed in range(200):
        exact = list_based_simulate_queue(10, cfg, seed)
        if exact.final_backlog == 0:
            served_all += 1
            assert simulate_queue(10, cfg, seed) == exact
    assert served_all >= 100


def ks_statistic(xs, ys):
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    xs, ys = sorted(xs), sorted(ys)
    i = j = 0
    gap = 0.0
    while i < len(xs) and j < len(ys):
        v = min(xs[i], ys[j])
        while i < len(xs) and xs[i] == v:
            i += 1
        while j < len(ys) and ys[j] == v:
            j += 1
        gap = max(gap, abs(i / len(xs) - j / len(ys)))
    return gap


@pytest.mark.parametrize("n, lam, horizon", [
    (8, 20.0, 2.0),    # 16x capacity
    (30, 20.0, 0.5),   # 60x capacity, shorter than 5 services
    (1, 11.0, 20.0),   # just past saturation: rho = 1.1
    (2, 12.0, 6.0),    # rho = 2.4
    (3, 5.0, 1.0),     # rho = 1.5, a backlog of a few requests
    (1, 20.0, 0.15),   # at most one request served: an off-by-one shows
])
def test_overloaded_backlog_has_the_exact_queues_distribution(n, lam, horizon):
    # Two-sample Kolmogorov-Smirnov test at alpha = 0.001 over 2,000 runs a
    # side on disjoint seeds. The asymptotic critical value is conservative
    # for a discrete law, so a correct queue fails with probability <= alpha.
    cfg = ControllerConfig(capacity_mu=10.0, event_rate_lambda=lam, sim_duration_s=horizon)
    runs = 2000
    fast = [simulate_queue(n, cfg, seed).final_backlog for seed in range(runs)]
    exact = [list_based_simulate_queue(n, cfg, seed).final_backlog
             for seed in range(10**6, 10**6 + runs)]
    critical = math.sqrt(-math.log(0.001 / 2.0) / 2.0) * math.sqrt(2.0 / runs)
    assert ks_statistic(fast, exact) <= critical


def test_queue_memory_does_not_grow_with_the_arrivals():
    # About 600,000 arrivals in 30 s; a list of their times alone takes ~19 MB.
    tracemalloc.start()
    try:
        outcome = simulate_queue(1000, ControllerConfig(), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.final_backlog > 590_000
    assert peak < 1_000_000


def test_simulate_queue_underload_stays_short():
    # arrival rate 5/s against capacity 10/s: an M/D/1 at rho = 0.5 keeps a
    # request 0.15 s in the system on average, so by Little's law about 0.75
    # requests are in the system
    cfg = ControllerConfig(capacity_mu=10.0, event_rate_lambda=0.5, sim_duration_s=200.0)
    outcome = simulate_queue(10, cfg, seed=3)
    mean_sojourn_s = sum(outcome.served_latencies_ms) / len(outcome.served_latencies_ms) / 1000.0
    assert 10 * cfg.event_rate_lambda * mean_sojourn_s < 2.0
    assert outcome.final_backlog <= 3


def test_simulate_queue_is_bit_reproducible():
    cfg = ControllerConfig()
    assert simulate_queue(60, cfg, seed=9) == simulate_queue(60, cfg, seed=9)
    assert simulate_queue(60, cfg, seed=9) != simulate_queue(60, cfg, seed=10)


def test_simulate_queue_served_latencies_positive():
    outcome = simulate_queue(5, ControllerConfig(event_rate_lambda=1.0), seed=4)
    assert outcome.served_latencies_ms
    assert all(lat >= 100.0 - 1e-9 for lat in outcome.served_latencies_ms)  # service takes 100 ms


def test_served_latency_mean_matches_the_md1_sojourn_time():
    # Below saturation, rho = n * lambda / mu = 5 / 10 = 0.5, the Pollaczek-Khinchine
    # mean sojourn time of an M/D/1 queue is 1/mu + rho / (2 mu (1 - rho)) = 150 ms.
    # Requests of one run are correlated, so the standard error comes from the
    # per-seed means. Seeds 0-19 were fixed before the first run; the tolerance
    # is 4 standard errors.
    n, lam, mu = 10, 0.5, 10.0
    cfg = ControllerConfig(capacity_mu=mu, event_rate_lambda=lam, sim_duration_s=2000.0)
    rho = n * lam / mu
    expected = (1.0 / mu + rho / (2.0 * mu * (1.0 - rho))) * 1000.0
    means = [statistics.fmean(simulate_queue(n, cfg, seed).served_latencies_ms) for seed in range(20)]
    stderr = statistics.stdev(means) / math.sqrt(len(means))
    assert stderr < 1.0
    assert abs(statistics.fmean(means) - expected) <= 4 * stderr


# ------------------------------------------------------------ latency curves

def test_max_latency_zero_nodes():
    assert max_latency_model(0, ControllerConfig()) == 0.0


def test_max_latency_half_saturation_calibration():
    cfg = ControllerConfig(latency_threshold_ms=30.0, half_saturation_nodes=40)
    assert max_latency_model(40, cfg) == 15.0


def test_max_latency_asymptote_stays_below_threshold():
    cfg = ControllerConfig()
    value = max_latency_model(10_000, cfg)
    assert value < 30.0
    assert round(value, 2) == 29.88


def test_latency_models_monotone_in_n():
    cfg = ControllerConfig()
    previous = -1.0
    for n in range(0, 2000, 25):
        value = max_latency_model(n, cfg)
        assert value > previous or n == 0
        previous = value


# ------------------------------------------------------------- config guards

def test_controller_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ControllerConfig(capacity_mu=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(event_rate_lambda=-1.0)
    with pytest.raises(ValueError):
        ControllerConfig(latency_threshold_ms=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(half_saturation_nodes=0)
