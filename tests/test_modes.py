"""Every public function that takes a ``mode`` rejects an unknown one through
the one check, with the one message.

The functions are found by signature over every module of ``src/sdnmanet``,
so a new mode-taking function fails here until it joins ``VALID_CALLS``.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

from sdnmanet.capacity import OverheadParams, effective_capacity, max_supported_nodes
from sdnmanet.routing import RoutingParams, control_overhead
from sdnmanet.simulator import (ScenarioConfig, TopologySettings, build_world, capacity_breakdown, evaluate,
                                run_scenario, throughput_model)
from sdnmanet.topology import generate_erdos_renyi

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sdnmanet"
BAD_MODE_MESSAGE = re.escape("mode must be one of ('traditional', 'sdn'), got 'SDN'")


def mode_functions():
    """``module.name`` of each public top-level function with a ``mode`` parameter."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"sdnmanet.{path.stem}" if path.stem != "__init__" else "sdnmanet")
        for name, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not name.startswith("_") and "mode" in inspect.signature(value).parameters):
                found[f"{path.stem}.{name}"] = value
    return found


CFG = ScenarioConfig(flow_samples=10, topology=TopologySettings(link_probability=0.3))
WORLD = build_world(CFG, 20, seed=1)
# Valid arguments for every mode-taking function, chosen so that "sdn" and
# "traditional" give different results.
VALID_CALLS = {
    "capacity.effective_capacity":
        lambda mode: effective_capacity(mode, WORLD.n, WORLD.packets, 15_000.0, OverheadParams(), 5e6, 30.0),
    "capacity.max_supported_nodes":
        lambda mode: max_supported_nodes(mode, 1e5, 15_000.0, OverheadParams(),
                                         lambda n: generate_erdos_renyi(n, 0.3, seed=n),
                                         1.0, controller_capacity=5e6, n_max=10),
    "routing.control_overhead": lambda mode: control_overhead(mode, WORLD.topology, RoutingParams(), 1.0, 1.0),
    "simulator.capacity_breakdown": lambda mode: capacity_breakdown(CFG, mode, WORLD),
    "simulator.evaluate": lambda mode: evaluate(CFG, WORLD, mode),
    "simulator.run_scenario": lambda mode: run_scenario(CFG, 10, mode, seed=1),
    "simulator.throughput_model": lambda mode: throughput_model(mode, 10.0, 5.0, 1.0, 1.2),
}
# A function that hands its mode straight to one that checks it.
CHECKED_BY = {"simulator.capacity_breakdown": "effective_capacity"}


@pytest.mark.parametrize("name", sorted(mode_functions()))
def test_every_mode_taker_rejects_an_unknown_mode(name):
    # effective_capacity("SDN", ...) used to price the network as traditional:
    # 209,222.4 bit/s on WORLD, where "sdn" gives 5,239,481.6.
    assert set(VALID_CALLS) == set(mode_functions())
    call = VALID_CALLS[name]
    assert call("sdn") != call("traditional")
    with pytest.raises(ValueError, match=f"^{BAD_MODE_MESSAGE}$") as excinfo:
        call("SDN")
    # The check fails in the function's own frame, before any other work, and
    # not only in a callee's.
    assert excinfo.traceback[-1].name == "_check_mode"
    assert excinfo.traceback[-2].name == CHECKED_BY.get(name, name.rpartition(".")[2])
