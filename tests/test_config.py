"""Config-file parsing and validation tests."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnmanet.config import _REGISTRY, ConfigError, parse_config
from sdnmanet.simulator import ScenarioConfig

REFERENCE_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "reference.cfg"
REMOVED_KEYS = (
    "controller.sim_duration_s", "routing.rediscovery_rate_per_s", "gains.clustered_share",
    "gains.clustered_gain", "gains.sliced_share", "gains.sliced_gain",
)


def write(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_empty_file_yields_calibrated_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg == ScenarioConfig()


def test_comments_and_blank_lines_ignored(tmp_path):
    cfg = parse_config(write(tmp_path, "\n# a comment\n  \nseed = 7  # trailing note\n"))
    assert cfg.seed == 7
    assert cfg.seeds_per_point == ScenarioConfig().seeds_per_point


def test_single_dotted_override(tmp_path):
    cfg = parse_config(write(tmp_path, "controller.capacity_mu = 25\n"))
    assert cfg.controller.capacity_mu == 25.0
    assert cfg.controller.event_rate_lambda == 20.0  # untouched default


def test_root_and_nested_overrides_together(tmp_path):
    text = "\n".join([
        "seed = 99",
        "seeds_per_point = 3",
        "sweep.start = 30",
        "sweep.end = 90",
        "topology.link_probability = 0.1",
        "routing.per_hop_delay_ms = 2.5",
        "costs.controller_capex = 900",
    ])
    cfg = parse_config(write(tmp_path, text))
    assert cfg.seed == 99
    assert cfg.sweep.start == 30
    assert cfg.topology.link_probability == 0.1
    assert cfg.routing.per_hop_delay_ms == 2.5
    assert cfg.costs.controller_capex == 900.0


def test_unknown_key_rejected_with_line_number(tmp_path):
    with pytest.raises(ConfigError, match=r":2: unknown key 'controller\.threads'"):
        parse_config(write(tmp_path, "seed = 1\ncontroller.threads = 4\n"))


def test_type_mismatch_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"not a valid int"):
        parse_config(write(tmp_path, "seeds_per_point = 2.5\n"))
    with pytest.raises(ConfigError, match=r"value '1e3' for key 'seed' is not a valid int"):
        parse_config(write(tmp_path, "seed = 1e3\n"))
    with pytest.raises(ConfigError, match=r"not a valid float"):
        parse_config(write(tmp_path, "sim_duration_s = fast\n"))


def test_out_of_range_probability_names_key(tmp_path):
    with pytest.raises(ConfigError, match=r"topology\.link_probability"):
        parse_config(write(tmp_path, "topology.link_probability = 1.5\n"))


def test_invariant_violation_names_line(tmp_path):
    with pytest.raises(ConfigError, match=r":1: sweep\.step"):
        parse_config(write(tmp_path, "sweep.step = 0\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config(write(tmp_path, "seed = 1\nseed = 2\n"))


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config(write(tmp_path, "just some words\n"))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config("/nonexistent/path/scenario.cfg")


def test_negative_dataclass_field_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"routing"):
        parse_config(write(tmp_path, "routing.per_hop_delay_ms = -1\n"))


def test_group_error_names_the_offending_keys_line(tmp_path):
    text = "controller.capacity_mu = 12\nseed = 3\ncontroller.event_rate_lambda = -1\n"
    with pytest.raises(ConfigError, match=r":3: controller\.event_rate_lambda must be non-negative$"):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize("first, last, message", [
    ("topology.area_width_m = 500", "topology.area_height_m = -5",
     r"topology\.area_height_m must be positive"),
    ("topology.speed_max_mps = 20", "topology.speed_min_mps = -1",
     r"topology\.speed_min_mps must be non-negative"),
    ("sweep.start = 150", "sweep.end = 100", r"sweep\.end must not precede sweep\.start"),
    ("sweep.end = 100", "sweep.start = 150", r"sweep\.end must not precede sweep\.start"),
    ("topology.speed_min_mps = 5", "topology.speed_max_mps = 2",
     r"topology\.speed_min_mps must not exceed topology\.speed_max_mps"),
    ("topology.speed_max_mps = 2", "topology.speed_min_mps = 5",
     r"topology\.speed_min_mps must not exceed topology\.speed_max_mps"),
], ids=["area", "speed", "sweep-end-last", "sweep-start-last", "speed-max-last", "speed-min-last"])
def test_range_error_names_the_bad_keys_line(tmp_path, first, last, message):
    # Both fields are read before either is checked, and the later line is blamed.
    with pytest.raises(ConfigError, match=rf":3: {message}$"):
        parse_config(write(tmp_path, f"{first}\nseed = 3\n{last}\n"))


@pytest.mark.parametrize("value", ["-1", "0"])
def test_bad_horizon_names_its_own_line(tmp_path, value):
    with pytest.raises(ConfigError, match=r":2: sim_duration_s must be positive"):
        parse_config(write(tmp_path, f"seed = 3\nsim_duration_s = {value}\n"))


def test_key_that_prefixes_another_is_not_blamed(tmp_path):
    with pytest.raises(ConfigError, match=r":2: seeds_per_point"):
        parse_config(write(tmp_path, "seed = 3\nseeds_per_point = 0\n"))


def test_cross_field_error_names_the_key_that_was_set(tmp_path):
    with pytest.raises(ConfigError, match=r":2: sweep\.end must not precede sweep\.start"):
        parse_config(write(tmp_path, "seed = 3\nsweep.start = 300\n"))


@pytest.mark.parametrize("key, value", [
    ("sim_duration_s", "inf"), ("sim_duration_s", "-inf"), ("per_node_demand_bps", "nan"),
    ("controller.capacity_mu", "1e400"),
])
def test_non_finite_float_rejected_with_key_and_line(tmp_path, key, value):
    with pytest.raises(ConfigError, match=rf":2: value '{value}' for key '{re.escape(key)}' is not finite"):
        parse_config(write(tmp_path, f"seed = 3\n{key} = {value}\n"))


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_unknown(tmp_path, key):
    with pytest.raises(ConfigError, match=rf":2: unknown key '{re.escape(key)}'"):
        parse_config(write(tmp_path, f"seed = 3\n{key} = 1\n"))


def test_horizon_is_also_the_controller_queue_horizon(tmp_path):
    cfg = parse_config(write(tmp_path, "sim_duration_s = 10\n"))
    assert cfg.sim_duration_s == cfg.controller.sim_duration_s == 10.0


def test_mismatched_horizons_rejected():
    with pytest.raises(ValueError, match=r"controller\.sim_duration_s must equal sim_duration_s"):
        ScenarioConfig(sim_duration_s=10.0).validate()


def test_reference_cfg_lists_every_key_at_its_default(tmp_path):
    text = REFERENCE_CFG.read_text(encoding="utf-8")
    keys = re.findall(r"^# ([\w.]+) = ", text, re.M)
    assert sorted(keys) == sorted(_REGISTRY)
    # The parser converts with the field's type; a bool would read "false" as True.
    assert all(kind in (int, float) for _, _, kind in _REGISTRY.values())
    uncommented = re.sub(r"^# ([\w.]+ = )", r"\1", text, flags=re.M)
    assert parse_config(write(tmp_path, uncommented)) == ScenarioConfig()


def test_integer_too_large_for_a_float_is_still_an_integer(tmp_path):
    # It used to escape as an OverflowError from the finiteness check.
    assert parse_config(write(tmp_path, f"seed = {'1' * 400}\n")).seed == int("1" * 400)


def test_undecodable_file_is_config_error(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_bytes(b"seed = \xff\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(str(path))


_KEYS = st.one_of(
    st.sampled_from(sorted(_REGISTRY)), st.sampled_from(REMOVED_KEYS), st.text(max_size=12),
)
_VALUES = (
    st.sampled_from(["true", "no", "inf", "-inf", "nan", "1e400", "0x10", "1_000", "", "=", "-0"])
    | st.integers(min_value=-10**6, max_value=10**6).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.text(max_size=12)
)
_ASSIGNMENTS = st.tuples(_KEYS, _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}")
_LINES = st.one_of(_ASSIGNMENTS, _ASSIGNMENTS, st.text(max_size=20), st.just("# comment"))
# Keys of one group with small values, so checks between two fields fire.
_GROUP_KEYS = {}
for _key in sorted(_REGISTRY):
    _GROUP_KEYS.setdefault(_key.rpartition(".")[0], []).append(_key)
_GROUP_FILES = st.sampled_from(sorted(_GROUP_KEYS)).flatmap(lambda group: st.lists(
    st.tuples(st.sampled_from(_GROUP_KEYS[group]), st.sampled_from(["-1", "0", "0.5", "1", "2", "3"])),
    max_size=6, unique_by=lambda kv: kv[0]).map(lambda kvs: [f"{k} = {v}" for k, v in kvs]))


def assert_names_its_line(path, message):
    """A ``path:N:`` error quotes the key set on line N. A range error
    (``key must ...``) comes once the whole file is read, so N is the last line
    that sets a key it names."""
    found = re.match(rf"{re.escape(path)}:(\d+): ", message)
    if found is None:
        return
    line_no, rest = int(found[1]), message[found.end():]
    with open(path, encoding="utf-8") as handle:  # the parser's line split
        texts = [line.split("#", 1)[0] for line in handle]
    keys = {n: text.split("=", 1)[0].strip() for n, text in enumerate(texts, 1) if "=" in text}
    if line_no in keys:
        assert keys[line_no] in rest
    if re.match(r"[\w.]+ must ", rest):
        named = {k for k in _REGISTRY if re.search(rf"(?<![\w.]){re.escape(k)}(?![\w.])", rest)}
        assert line_no == max(n for n, key in keys.items() if key in named), message


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=6) | _GROUP_FILES)
def test_parser_raises_only_config_error(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("cfg") / "scenario.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        cfg = parse_config(str(path))
    except ConfigError as exc:
        assert_names_its_line(str(path), str(exc))
        return
    cfg.validate()
    for key, (group, name, _) in _REGISTRY.items():
        value = getattr(getattr(cfg, group) if group else cfg, name)
        assert math.isfinite(value), key
