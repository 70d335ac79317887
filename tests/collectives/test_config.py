"""CollectiveConfig validation and its CMPConfig embedding."""

import pytest

from repro.collectives.config import CollectiveConfig
from repro.common.errors import ConfigError
from repro.common.params import CMPConfig


def test_defaults_disabled():
    cc = CollectiveConfig()
    assert not cc.enabled
    assert cc.backend == "gl"
    assert cc.value_width == 8


@pytest.mark.parametrize("kwargs", [
    {"backend": "noc"},
    {"value_width": 0},
    {"value_width": 65},
    {"num_contexts": 0},
    {"time_slots": -1},
    {"watchdog_budget": -1},
    {"watchdog_retries": -1},
    # Time multiplexing fixes the context count at time_slots.
    {"num_contexts": 4, "time_slots": 2},
])
def test_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        CollectiveConfig(**kwargs)


def test_roundtrips_through_dict():
    cc = CollectiveConfig(enabled=True, backend="sw", value_width=12,
                          num_contexts=2, watchdog_budget=64)
    assert CollectiveConfig.from_dict(cc.to_dict()) == cc
    with pytest.raises(ConfigError):
        CollectiveConfig.from_dict({"bogus": 1})


def test_cmp_config_carries_collectives():
    cfg = CMPConfig.for_cores(16)
    assert cfg.collectives == CollectiveConfig()
    cc = CollectiveConfig(enabled=True, value_width=6)
    cfg = CMPConfig.for_cores(16, collectives=cc)
    assert CMPConfig.from_dict(cfg.to_dict()).collectives == cc


def test_cmp_config_from_dict_backward_compatible():
    # Configs serialized before the collectives field existed must load.
    data = CMPConfig.for_cores(16).to_dict()
    data.pop("collectives")
    assert CMPConfig.from_dict(data).collectives == CollectiveConfig()
