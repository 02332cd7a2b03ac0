"""Config-file parsing and physical presets."""

import math

import pytest

from entflow import (
    DEFAULT_CONFIG,
    ConfigError,
    Direction,
    MICROWAVE,
    PRESETS,
    load_config_file,
)


def write_config(tmp_path, text):
    path = tmp_path / "net.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_default_operating_point():
    assert DEFAULT_CONFIG.M == 10
    assert DEFAULT_CONFIG.r == 0.0
    assert DEFAULT_CONFIG.j == 0.0
    assert DEFAULT_CONFIG.gamma == 0.8
    assert DEFAULT_CONFIG.gamma_out == 0.002
    assert DEFAULT_CONFIG.direction is Direction.FORWARD
    assert DEFAULT_CONFIG.nbar_local is None


def test_load_full_config(tmp_path):
    path = write_config(
        tmp_path,
        """
        # a three-node chain driven from the tail
        M = 3
        r = 0.25
        j = 0.75   # coupling
        gamma = 0.6
        gamma_out = 0.01
        omega = 1.0, 1.0, 1.0, 1.0
        nbar_local = 0.05
        nbar_common = 0.1, 0.2
        direction = backward
        """,
    )
    cfg = load_config_file(path)
    assert cfg.M == 3
    assert cfg.r == 0.25
    assert cfg.j == 0.75
    assert cfg.gamma == 0.6
    assert cfg.gamma_out == 0.01
    assert cfg.omega == (1.0, 1.0, 1.0, 1.0)
    assert cfg.nbar_local == 0.05  # single value broadcasts later
    assert cfg.nbar_common == (0.1, 0.2)
    assert cfg.direction is Direction.BACKWARD


def test_partial_config_keeps_defaults(tmp_path):
    cfg = load_config_file(write_config(tmp_path, "r = 0.1\n"))
    assert cfg.r == 0.1
    assert cfg.M == DEFAULT_CONFIG.M
    assert cfg.gamma == DEFAULT_CONFIG.gamma


@pytest.mark.parametrize(
    "text,lineno,needle",
    [
        ("M = 10\nbogus = 1\n", 2, "unknown key"),
        ("r = 0.1\nr = 0.2\n", 2, "duplicate"),
        ("gamma\n", 1, "expected 'key = value'"),
        ("j = fast\n", 1, "fast"),
        ("direction = sideways\n", 1, "forward"),
        ("omega = ,\n", 1, "omega"),
    ],
)
def test_errors_are_line_anchored(tmp_path, text, lineno, needle):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        load_config_file(path)
    message = str(err.value)
    assert f"{path}:{lineno}:" in message
    assert needle in message


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config_file(tmp_path / "absent.cfg")
    assert "absent.cfg" in str(err.value)


def test_microwave_preset():
    assert PRESETS["microwave"] is MICROWAVE
    assert MICROWAVE.name == "microwave"
    assert MICROWAVE.omega_cavity == pytest.approx(2.0 * math.pi * 5.0e9)

