"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` or
``-rA`` to see them alongside the per-test verdicts), and the criteria are
numbered so the suite reads as the release checklist.
"""

import hashlib
import math
import os
import random
import time
from pathlib import Path

import pytest

from sdnmanet.capacity import CapacityGains, clustered_sliced_capacity, max_supported_nodes
from sdnmanet.cli import main
from sdnmanet.controller import ControllerConfig, fluid_backlog, max_latency_model, simulate_queue
from sdnmanet.econ import AllocationState, CostParams, RiskProfile, allocation_cost, crossover_n, security_risk
from sdnmanet.resources import RESOURCE_KINDS, ResourceCurveParams, first_bottleneck, utilization
from sdnmanet.rng import derive_seed
from sdnmanet.routing import PathCostWeights, sdn_path_cost
from sdnmanet.simulator import ScenarioConfig, compare, sweep
from sdnmanet.topology import NoRouteError, generate_erdos_renyi

from test_econ import closed_form_crossover
from test_simulator import r_squared
from test_topology import brute_force_min_cost

#: The reference sweep's outputs (calibrated defaults, seed 42): both CSV
#: files verbatim and the SHA-256 of each chart, in ``sha256sum`` format.
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def default_sweep():
    cfg = ScenarioConfig()
    return cfg, sweep(cfg)


def test_criterion_01_controller_backlog_fluid_and_simulated():
    cfg = ControllerConfig(capacity_mu=10.0, event_rate_lambda=20.0, sim_duration_s=30.0)
    assert fluid_backlog(170, cfg) == 101_700.0
    started = time.perf_counter()
    finals = [simulate_queue(170, cfg, seed=s).final_backlog for s in range(10)]
    elapsed = time.perf_counter() - started
    for final in finals:
        assert abs(final - 101_700.0) / 101_700.0 <= 0.02
    mean_final = sum(finals) / len(finals)
    assert abs(mean_final - 101_700.0) / 101_700.0 <= 0.02
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: fluid backlog 101700 exact; simulated mean "
          f"{mean_final:.0f} within 2%; {elapsed:.2f} s for 10 seeds")


def test_criterion_02_backlog_linearity():
    cfg = ControllerConfig()
    ns = list(range(40, 201, 30))
    fit_fluid = r_squared(ns, [fluid_backlog(n, cfg) for n in ns])
    fit_sim = r_squared(ns, [simulate_queue(n, cfg, seed=n).final_backlog for n in ns])
    assert fit_fluid >= 0.999
    assert fit_sim >= 0.999
    print(f"ACCEPTANCE 2 PASS: backlog vs n linear, R^2 fluid={fit_fluid:.6f} "
          f"simulated={fit_sim:.6f}")


def test_criterion_03_latency_saturation_curve():
    cfg = ControllerConfig()
    assert max_latency_model(40, cfg) == 15.0
    previous = -1.0
    for n in range(0, 1_000_001):
        value = max_latency_model(n, cfg)
        assert value < 30.0
        if n:
            assert value > previous
        previous = value
    print("ACCEPTANCE 3 PASS: max latency strictly increasing, < 30 ms through n=10^6, "
          "15.0 ms at n=40")


def test_criterion_04_erdos_renyi_statistics():
    started = time.perf_counter()
    counts = [len(generate_erdos_renyi(200, 0.05, seed=s).edges) for s in range(100)]
    elapsed = time.perf_counter() - started
    mean = sum(counts) / len(counts)
    stderr = math.sqrt(19_900 * 0.05 * 0.95 / len(counts))
    assert abs(mean - 995.0) <= 3 * stderr
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 PASS: mean edges {mean:.1f} within 995 +/- {3 * stderr:.1f}; "
          f"{elapsed:.2f} s for 100 seeds")


def test_criterion_05_routing_cost_oracle():
    rng = random.Random(20_18)
    agreements = 0
    for trial in range(200):
        n = rng.randint(2, 8)
        t = generate_erdos_renyi(n, rng.uniform(0.25, 1.0), seed=trial + 3000)
        weights = {i: rng.uniform(0.2, 5.0) for i in range(n)}
        src, dst = rng.sample(range(n), 2)
        expected = brute_force_min_cost(t, src, dst, weights)
        if expected is None:
            with pytest.raises(NoRouteError):
                sdn_path_cost(t, PathCostWeights(weights), src, dst)
        else:
            got = sdn_path_cost(t, PathCostWeights(weights), src, dst)
            assert got == pytest.approx(expected[0], rel=1e-12)
        agreements += 1
    assert agreements == 200
    print("ACCEPTANCE 5 PASS: central path cost equals exhaustive minimum on 200/200 graphs")


def test_criterion_06_control_overhead_dominance(default_sweep):
    _, pairs = default_sweep
    for trad, sdn in pairs:
        assert sdn.control_overhead_bits < trad.control_overhead_bits, f"n={trad.n}"
    ratios = [s.control_overhead_bits / t.control_overhead_bits for t, s in pairs]
    print(f"ACCEPTANCE 6 PASS: SDN overhead below traditional at all "
          f"{len(pairs)} sweep points (ratios {min(ratios):.3f}..{max(ratios):.3f})")


def test_criterion_07_calibrated_headline(default_sweep):
    cfg, pairs = default_sweep
    headline = compare(pairs, cfg.costs, cfg.reference_n).headline
    assert headline.capex_reduction == pytest.approx(0.25, abs=0.01)
    assert headline.opex_reduction == pytest.approx(0.30, abs=0.01)
    assert headline.latency_reduction == pytest.approx(0.40, abs=0.03)
    assert headline.throughput_gain == pytest.approx(1.20, abs=0.02)
    print(f"ACCEPTANCE 7 PASS: headline at n=50 -> capex -{headline.capex_reduction:.1%}, "
          f"opex -{headline.opex_reduction:.1%}, latency -{headline.latency_reduction:.1%}, "
          f"throughput x{headline.throughput_gain:.3f}")


def test_criterion_08_capacity_claims():
    cfg = ScenarioConfig()

    def generator(n):
        return generate_erdos_renyi(
            n, cfg.topology.link_probability, derive_seed(cfg.seed, 5, n),
            area=(cfg.topology.area_width_m, cfg.topology.area_height_m),
        )

    supported = {}
    for mode in ("traditional", "sdn"):
        supported[mode] = max_supported_nodes(
            mode, cfg.per_node_demand_bps, cfg.topology.node_capacity_bps, cfg.overhead, generator,
            cfg.mean_speed_mps(),
            controller_capacity=cfg.controller_capacity_bps if mode == "sdn" else 0.0,
            n_max=cfg.sweep.end,
        )
    ratio = supported["sdn"] / supported["traditional"]
    assert ratio == pytest.approx(1.5, abs=0.1)
    uplift = clustered_sliced_capacity(1.0, CapacityGains())
    assert uplift == pytest.approx(1.35, abs=0.02)
    print(f"ACCEPTANCE 8 PASS: supported nodes {supported['sdn']}/{supported['traditional']} "
          f"= {ratio:.3f} (target 1.5 +/- 0.1); clustering+slicing uplift {uplift:.3f}")


def test_criterion_09_econ_oracles():
    rng = random.Random(2025)
    for _ in range(1000):
        params = CostParams(
            node_hw_traditional=rng.uniform(10, 300),
            node_sw_traditional=rng.uniform(0, 100),
            node_hw_sdn=rng.uniform(10, 300),
            controller_capex=rng.uniform(0, 5000),
            node_maint_traditional=rng.uniform(0, 50),
            node_monitor_traditional=rng.uniform(0, 50),
            node_config_traditional=rng.uniform(0, 50),
            controller_maint=rng.uniform(0, 500),
            controller_config=rng.uniform(0, 500),
            controller_monitor=rng.uniform(0, 500),
            node_maint_sdn=rng.uniform(0, 80),
        )
        assert crossover_n(params) == closed_form_crossover(params)

    full = AllocationState((25.0, 25.0, 50.0), (8.0, 16.0, 16.0), 100.0, 40.0)
    assert allocation_cost(full) == pytest.approx(2.0, abs=1e-12)

    for _ in range(200):
        first = tuple((rng.random(), rng.uniform(0, 50)) for _ in range(rng.randint(0, 6)))
        second = tuple((rng.random(), rng.uniform(0, 50)) for _ in range(rng.randint(0, 6)))
        assert security_risk(RiskProfile(first + second)) == pytest.approx(
            security_risk(RiskProfile(first)) + security_risk(RiskProfile(second)),
            rel=1e-12, abs=1e-12,
        )
        k = rng.uniform(0.1, 9.0)
        scaled = tuple((p, i * k) for p, i in first)
        assert security_risk(RiskProfile(scaled)) == pytest.approx(
            k * security_risk(RiskProfile(first)), rel=1e-12, abs=1e-12,
        )
    print("ACCEPTANCE 9 PASS: crossover matches closed form on 1000 draws; "
          "full allocation costs 2.0; risk is additive and impact-linear")


def test_criterion_10_resource_curves():
    params = ResourceCurveParams()
    for kind in RESOURCE_KINDS:
        values = [utilization(kind, n, params) for n in range(0, 400)]
        assert all(b >= a for a, b in zip(values, values[1:]))
    for n in range(1, 181):
        cpu = utilization("cpu", n, params)
        mem = utilization("memory", n, params)
        net = utilization("network", n, params)
        sto = utilization("storage", n, params)
        assert cpu >= mem >= net >= sto
    assert first_bottleneck(params, 400) == ("cpu", 180)
    print("ACCEPTANCE 10 PASS: curves monotone, ordered cpu>=mem>=net>=storage below "
          "saturation, CPU first bottleneck at n=180")


def test_criterion_11_end_to_end_determinism(tmp_path):
    scenario = tmp_path / "default.cfg"
    scenario.write_text("# calibrated defaults\n", encoding="utf-8")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    durations = []
    for out in (out_a, out_b):
        started = time.perf_counter()
        assert main(["sweep", str(scenario), "--out", out, "--quiet"]) == 0
        durations.append(time.perf_counter() - started)
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    assert "metrics.csv" in names and "comparison.csv" in names
    assert sum(1 for name in names if name.endswith(".svg")) == 5
    with open(os.path.join(out_a, "metrics.csv"), "rb") as handle:
        data_rows = [line for line in handle.read().decode().split("\r\n") if line][1:]
    assert len(data_rows) == 14  # 7 node counts x 2 modes
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read(), f"{name} differs between runs"
    for name in ("metrics.csv", "comparison.csv"):
        assert Path(out_a, name).read_bytes() == (GOLDEN / name).read_bytes(), \
            f"{name} differs from tests/golden/{name}"
    for line in (GOLDEN / "charts.sha256").read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        assert hashlib.sha256(Path(out_a, name).read_bytes()).hexdigest() == digest, \
            f"{name} differs from its pinned SHA-256"
    assert max(durations) < 60.0
    print(f"ACCEPTANCE 11 PASS: byte-identical outputs across runs and against the golden "
          f"pin ({len(names)} files); sweep times {durations[0]:.1f} s / {durations[1]:.1f} s")
