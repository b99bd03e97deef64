"""AnalysisConfig defaults, derived values, validation and file loading."""
import dataclasses
import inspect
import json

import numpy as np
import pytest

from yingram import (
    DEFAULT_GRID,
    AnalysisConfig,
    NoteGrid,
    compute_yingram,
    difference_function,
    harmonic_tone,
    load_config_file,
    random_tonal_frame,
    sine_tone,
    vibrato_tone,
    write_yingram_binary,
)
from yingram.yin import estimate_f0
from conftest import INVALID_CONFIGS, changed_value


def test_defaults_pinned():
    cfg = AnalysisConfig()
    assert cfg.sample_rate == 22050
    assert cfg.window == 2048
    assert cfg.hop == 256
    assert cfg.start_note == -5
    assert cfg.num_channels == 80
    assert cfg.bins_per_octave == 24
    assert cfg.reference_note == 69
    assert cfg.reference_hz == 440.0
    assert cfg.lambda_yin == 45.0
    assert cfg.f0_threshold == 0.1
    assert cfg.voicing_cutoff == 0.25
    assert cfg.f_min == 52.0
    assert cfg.f_max == 508.0
    assert cfg.shift_tolerance == 0.5
    assert cfg.min_overlap == 0.5
    assert cfg.seed == 0


def test_derived_framing():
    cfg = AnalysisConfig()
    assert cfg.tau_max == 426
    assert cfg.frame_length == 2474


def test_replace_and_roundtrip():
    cfg = AnalysisConfig().replace(hop=512)
    assert cfg.hop == 512
    assert AnalysisConfig(**cfg.to_dict()) == cfg


def test_json_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"window": 1024, "f_max": 600, "hop": 128.0}))
    cfg = load_config_file(path)
    assert cfg.window == 1024
    assert cfg.f_max == 600.0
    assert cfg.hop == 128
    assert isinstance(cfg.window, int)
    assert isinstance(cfg.f_max, float)
    assert isinstance(cfg.hop, int)


def test_keyvalue_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("hop=128\nlambda_yin = 30\n")
    cfg = load_config_file(path)
    assert cfg.hop == 128
    assert cfg.lambda_yin == 30.0


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"hopp": 128}))
    with pytest.raises(ValueError, match="unknown config key"):
        load_config_file(path)


@pytest.mark.parametrize("overrides, field", INVALID_CONFIGS)
def test_invalid_config_rejected(tmp_path, overrides, field):
    with pytest.raises(ValueError, match=f"invalid config: .*{field}="):
        AnalysisConfig(**overrides)
    with pytest.raises(ValueError, match=f"invalid config: .*{field}="):
        AnalysisConfig().replace(**overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(overrides))
    with pytest.raises(ValueError, match=f"invalid config: .*{field}="):
        load_config_file(path)


def test_numbers_are_stored_as_plain_int_and_float(tmp_path):
    numpy_values = AnalysisConfig(
        start_note=np.int64(-5), sample_rate=np.int32(22050), reference_hz=np.float32(440.0),
        f_max=np.float64(508.0), lambda_yin=45, seed=np.uint8(0),
    )
    assert numpy_values == AnalysisConfig()
    for f in dataclasses.fields(AnalysisConfig):
        assert type(getattr(numpy_values, f.name)) is (int if f.type == "int" else float)
    # once the .f32 was written and its sidecar raised "int64 is not JSON serializable"
    for name, cfg in [("numpy", numpy_values), ("plain", AnalysisConfig())]:
        matrix = compute_yingram(sine_tone(220.0, 0.1), cfg)
        write_yingram_binary(matrix, tmp_path / f"{name}.f32", extra={"config": cfg.to_dict()})
    assert (tmp_path / "numpy.f32.json").read_bytes() == (tmp_path / "plain.f32.json").read_bytes()


def test_every_field_is_a_config_file_key(tmp_path):
    path = tmp_path / "cfg.txt"
    for f in dataclasses.fields(AnalysisConfig):
        value = changed_value(f.name)
        path.write_text(f"{f.name} = {value}\n")
        assert load_config_file(path) == AnalysisConfig().replace(**{f.name: value})


# Function defaults that mirror a config field: (callable, {parameter: field}).
MIRRORED_DEFAULTS = [
    (estimate_f0, {"threshold": "f0_threshold", "f_min": "f_min", "f_max": "f_max",
                   "voicing_cutoff": "voicing_cutoff"}),
    (difference_function, {"window": "window"}),
    (sine_tone, {"sample_rate": "sample_rate"}),
    (harmonic_tone, {"sample_rate": "sample_rate"}),
    (vibrato_tone, {"sample_rate": "sample_rate"}),
    (random_tonal_frame, {"sample_rate": "sample_rate"}),
    (NoteGrid, {f.name: f.name for f in dataclasses.fields(NoteGrid)}),
]


@pytest.mark.parametrize(
    "fn, params", MIRRORED_DEFAULTS, ids=[fn.__name__ for fn, _ in MIRRORED_DEFAULTS]
)
def test_function_defaults_match_config(fn, params):
    defaults = AnalysisConfig()
    signature = inspect.signature(fn)
    for param, field in params.items():
        assert signature.parameters[param].default == getattr(defaults, field), param


def test_default_grid_is_the_config_grid():
    assert DEFAULT_GRID == AnalysisConfig().grid
