"""The shared config-section reader and the atomic file writer."""

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import pytest

from geoaware.errors import ConfigError, FormatError
from geoaware.persist import from_dict, write_atomic


@dataclass
class Inner:
    rate: float = 0.5
    count: int = 3
    name: str = "x"
    flag: bool = False


@dataclass
class Outer:
    seed: int = 0
    inner: Inner = field(default_factory=Inner)


def test_missing_keys_keep_defaults_and_round_trip():
    assert from_dict(Outer, {}, "top-level") == Outer()
    cfg = Outer(seed=4, inner=Inner(rate=0.25, count=9, name="y", flag=True))
    assert from_dict(Outer, asdict(cfg), "top-level") == cfg


def test_int_accepted_for_float_without_coercion():
    cfg = from_dict(Inner, {"rate": 2}, "inner")
    assert cfg.rate == 2 and type(cfg.rate) is int


@pytest.mark.parametrize(
    "data",
    [
        {"count": "3"},
        {"count": 3.0},
        {"count": True},
        {"rate": False},
        {"rate": "0.5"},
        {"name": 1},
        {"flag": 1},
        {"flag": None},
    ],
)
def test_mistyped_values_rejected(data):
    with pytest.raises(ConfigError, match="inner"):
        from_dict(Inner, data, "inner")


def test_nested_section_is_read_strictly():
    with pytest.raises(ConfigError, match="'inner'"):
        from_dict(Outer, {"inner": {"bogus": 1}}, "top-level")
    with pytest.raises(ConfigError, match="'inner'"):
        from_dict(Outer, {"inner": 7}, "top-level")
    with pytest.raises(ConfigError, match="top-level"):
        from_dict(Outer, {"bogus": 1}, "top-level")
    with pytest.raises(ConfigError, match="top-level"):
        from_dict(Outer, [], "top-level")


def test_error_class_is_selectable():
    with pytest.raises(FormatError):
        from_dict(Outer, {"inner": {"count": "3"}}, "top-level", FormatError)


def test_write_atomic_replaces_text_and_bytes(tmp_path):
    path = tmp_path / "out.txt"
    write_atomic(path, "first\n")
    write_atomic(path, "second\n")
    assert path.read_text() == "second\n"
    write_atomic(path, b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    write_atomic(path, "intact\n")
    # a lone surrogate cannot be encoded: the write fails once the temporary
    # file exists
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "x" * 100_000 + "\ud800")
    assert path.read_text() == "intact\n"
    assert os.listdir(tmp_path) == ["out.txt"]

    # the new data is fully written, then the rename fails
    def failing_replace(src, dst):
        assert Path(src).read_text() == "new\n"
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_atomic(path, "new\n")
    assert path.read_text() == "intact\n"
    assert os.listdir(tmp_path) == ["out.txt"]
