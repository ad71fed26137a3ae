"""Controller backlog, queue-trace, latency-curve, and saturation tests."""

import math
import random

import pytest

from sdnmanet.controller import (
    ControllerConfig,
    avg_latency_model,
    fluid_backlog,
    max_latency_model,
    saturation_point,
    simulate_queue,
)
from sdnmanet.rng import exp_interval


def r_squared(xs, ys):
    """Least-squares linear fit quality, computed from scratch."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot


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


# --------------------------------------------------------------- queue trace

def test_simulate_queue_empty_network_stays_empty():
    trace = simulate_queue(0, ControllerConfig(), seed=1)
    assert all(q == 0 for q in trace.queue_sizes)
    assert trace.final_backlog == 0
    assert trace.served_latencies_ms == ()


def test_simulate_queue_trace_shape():
    cfg = ControllerConfig(sim_duration_s=5.0)
    trace = simulate_queue(3, cfg, seed=2)
    assert len(trace.times) == 50  # 0.1 s sampling
    assert all(b > a for a, b in zip(trace.times, trace.times[1:]))
    assert trace.final_backlog == trace.queue_sizes[-1]
    assert all(q >= 0 for q in trace.queue_sizes)


def test_simulate_queue_matches_fluid_limit_in_overload():
    cfg = ControllerConfig()
    expected = fluid_backlog(170, cfg)
    finals = [simulate_queue(170, cfg, seed=s).final_backlog for s in range(10)]
    mean_final = sum(finals) / len(finals)
    assert abs(mean_final - expected) / expected <= 0.02
    for final in finals:
        assert abs(final - expected) / expected <= 0.02


@pytest.mark.parametrize("horizon", [0.04, 0.25, 30.05])
def test_final_backlog_is_the_queue_at_the_horizon(horizon):
    # None of these horizons is a 0.1 s sample time; the backlog must still
    # count every request that arrived by the horizon and was not served.
    cfg = ControllerConfig(sim_duration_s=horizon)
    trace = simulate_queue(170, cfg, seed=5)
    rng, rate = random.Random(5), 170 * cfg.event_rate_lambda  # replay the arrivals
    arrived, t = 0, exp_interval(rng, rate)
    while t <= horizon:
        arrived += 1
        t += exp_interval(rng, rate)
    assert trace.final_backlog == arrived - len(trace.served_latencies_ms)


def test_final_backlog_within_one_sample_interval_matches_fluid_bound():
    cfg = ControllerConfig(sim_duration_s=0.04)  # ends before the first 0.1 s sample
    expected = fluid_backlog(170, cfg)  # 135.6 requests
    # Six standard deviations of the Poisson arrival count, plus the request in service.
    tolerance = 6.0 * math.sqrt((170 * cfg.event_rate_lambda + cfg.capacity_mu) * 0.04) + 3.0
    for s in range(10):
        assert abs(simulate_queue(170, cfg, seed=s).final_backlog - expected) <= tolerance


def test_simulate_queue_underload_stays_short():
    # arrival rate 5/s against capacity 10/s: an M/D/1 at rho = 0.5 keeps
    # about 0.75 requests in the system on average
    cfg = ControllerConfig(capacity_mu=10.0, event_rate_lambda=0.5, sim_duration_s=200.0)
    trace = simulate_queue(10, cfg, seed=3)
    mean_queue = sum(trace.queue_sizes) / len(trace.queue_sizes)
    assert mean_queue < 2.0


def test_simulate_queue_is_bit_reproducible():
    cfg = ControllerConfig()
    assert simulate_queue(60, cfg, seed=9) == simulate_queue(60, cfg, seed=9)
    assert simulate_queue(60, cfg, seed=9) != simulate_queue(60, cfg, seed=10)


def test_simulate_queue_served_latencies_positive():
    trace = simulate_queue(5, ControllerConfig(event_rate_lambda=1.0), seed=4)
    assert trace.served_latencies_ms
    assert all(lat >= 100.0 - 1e-9 for lat in trace.served_latencies_ms)  # service takes 100 ms


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


def test_avg_latency_is_fixed_fraction_of_max():
    cfg = ControllerConfig()
    assert avg_latency_model(0, cfg) == 0.0
    for n in (1, 10, 50, 500):
        assert avg_latency_model(n, cfg) == pytest.approx(0.6 * max_latency_model(n, cfg))
        assert avg_latency_model(n, cfg) <= max_latency_model(n, cfg)


def test_latency_models_monotone_in_n():
    cfg = ControllerConfig()
    previous = -1.0
    for n in range(0, 2000, 25):
        value = avg_latency_model(n, cfg)
        assert value > previous or n == 0
        previous = value


# ------------------------------------------------------------- saturation

def test_saturation_single_node_overloads():
    assert saturation_point(ControllerConfig(capacity_mu=10.0, event_rate_lambda=20.0)) == 1


def test_saturation_decimal_rate_rounds_like_exact_arithmetic():
    assert saturation_point(ControllerConfig(capacity_mu=10.0, event_rate_lambda=0.1)) == 101


def test_saturation_strict_inequality():
    assert saturation_point(ControllerConfig(capacity_mu=10.0, event_rate_lambda=10.0)) == 2


def test_saturation_zero_rate_never_saturates():
    assert saturation_point(ControllerConfig(capacity_mu=10.0, event_rate_lambda=0.0)) is None


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
