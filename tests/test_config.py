"""Configuration loading, validation, and override tests."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from dualmim.config import TrainConfig, load_config
from dualmim.errors import ConfigError
from dualmim.vit import ProjectionHeadConfig


def test_defaults_validate():
    cfg = TrainConfig().validate()
    assert cfg.model.num_patches == 64
    assert cfg.masking.ratio == 0.75
    assert cfg.masking.num_folds == 3
    assert cfg.head.output_dim == 4096
    assert cfg.ema_rec.start_momentum == 0.96
    assert cfg.ema_rec.end_momentum == 0.99
    assert cfg.ema_cl.start_momentum == 0.996
    assert cfg.ema_cl.end_momentum == 1.0
    assert cfg.sinkhorn.n_iters == 3
    assert cfg.sinkhorn.teacher_temperature == 0.05
    assert cfg.sinkhorn.student_temperature == 0.1
    assert cfg.optim.lr == 1.5e-3
    assert cfg.optim.batch_size == 128


def test_json_roundtrip():
    cfg = TrainConfig()
    again = TrainConfig.from_json(cfg.to_json())
    assert again == cfg


def test_default_config_json_is_pinned():
    """The head width has one default, the dataclass's own, and the default
    config's JSON (which checkpoints embed) keeps its bytes: the sha256 is
    that of the JSON written while TrainConfig overrode a 2048 default."""
    assert TrainConfig().head == ProjectionHeadConfig()
    assert ProjectionHeadConfig().hidden_dim == 16
    assert hashlib.sha256(TrainConfig().to_json().encode()).hexdigest() == (
        "f0e187648a583d2ab9ce1c445892cc6a2fd5a40ab25fc352a3938a849afeb4db")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        TrainConfig.from_dict({"no_such_field": 1})


def test_yaml_file_and_override(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text("optim:\n  batch_size: 32\nseed: 9\n")
    cfg = load_config(str(p), {"loss.lambda_c": "0", "masking.num_folds": "2"})
    assert cfg.optim.batch_size == 32
    assert cfg.seed == 9
    assert cfg.loss.lambda_c == 0
    assert cfg.masking.num_folds == 2


def test_override_unknown_dotted_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, {"optim.bogus": "1"})


def test_yaml_and_overrides_share_one_merge(tmp_path):
    """An override reads as the one-key YAML file of its dotted path: same
    config, and the same message for an unknown key."""
    p = tmp_path / "run.yaml"
    p.write_text("teacher_mode: single\nseed: 7\nloss:\n  lambda_c: 0\n")
    assert load_config(str(p)) == load_config(
        None, {"teacher_mode": "single", "seed": "7", "loss.lambda_c": "0"})
    p.write_text("optim:\n  bogus: 1\n")
    messages = []
    for args in ((str(p), None), (None, {"optim.bogus": "1"})):
        with pytest.raises(ConfigError) as e:
            load_config(*args)
        messages.append(str(e.value))
    assert messages == ["unknown config key at 'optim': bogus"] * 2


def test_non_divisible_folds_rejected_at_config_time():
    with pytest.raises(ConfigError, match="divide evenly"):
        load_config(None, {"masking.num_folds": "5"})


def test_invalid_momenta_rejected():
    with pytest.raises(ConfigError, match="momenta"):
        load_config(None, {"ema_rec.start_momentum": "0.999",
                           "ema_rec.end_momentum": "0.9"})


def test_invalid_teacher_mode_rejected():
    with pytest.raises(ConfigError, match="teacher_mode"):
        load_config(None, {"teacher_mode": "triple"})


def test_negative_loss_weight_rejected():
    with pytest.raises(ConfigError, match="nonnegative"):
        load_config(None, {"loss.lambda_p": "-1"})


def test_model_divisibility_rejected():
    with pytest.raises(ConfigError):
        load_config(None, {"model.image_size": "30"})
    with pytest.raises(ConfigError):
        load_config(None, {"model.embed_dim": "65"})


@pytest.mark.parametrize("key", [
    "model.patch_size", "model.num_heads", "model.depth", "model.embed_dim",
    "model.decoder_dim", "model.mlp_ratio", "head.hidden_dim",
    "head.num_shared_layers"])
def test_zero_size_rejected(key):
    """A zero size is a config error, not a division by zero or an empty
    block list later."""
    with pytest.raises(ConfigError, match=f"{key} must be positive"):
        load_config(None, {key: "0"})


def test_decoder_depth_zero_allowed():
    assert load_config(None, {"model.decoder_depth": "0"}).model.decoder_depth == 0


def test_teacher_temperature_floor():
    cfg = TrainConfig()
    cfg.sinkhorn.teacher_temperature = 0.025
    cfg.validate()
    cfg.sinkhorn.teacher_temperature = 0.02
    with pytest.raises(ConfigError, match="teacher_temperature"):
        cfg.validate()


@pytest.mark.parametrize("overrides", [
    {"optim.lr": "[1, 2]"},
    {"optim.lr": "{x: 1}"},
    {"optim.lr": "true"},
    {"optim.lr": "fast"},
    {"optim.batch_size": "2.5"},
    {"optim.batch_size": "true"},
    {"seed": "[3]"},
    {"multifold_pseudo_labeling": "1"},
    {"teacher_mode": "2"},
    {"augment.crop_scale": "0.5"},
    {"augment.crop_scale": "null"},
])
def test_value_not_fitting_its_field_rejected(overrides):
    (key,) = overrides
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        load_config(None, overrides)


def test_yaml_value_not_fitting_its_field_rejected(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text("optim:\n  lr:\n    x: 1\n")
    with pytest.raises(ConfigError, match="'optim.lr' must be a number"):
        load_config(str(p))


def test_values_fitting_their_fields_accepted():
    cfg = load_config(None, {"optim.lr": "1", "optim.batch_size": "64",
                             "multifold_pseudo_labeling": "false",
                             "augment.crop_scale": "[0.5, 1]",
                             "model.hierarchical_layers": "[2, 4]"})
    # a float field keeps an int as given, so the JSON form is unchanged
    assert type(cfg.optim.lr) is int and '"lr": 1,' in cfg.to_json()
    assert cfg.optim.batch_size == 64
    assert cfg.multifold_pseudo_labeling is False
    assert cfg.augment.crop_scale == (0.5, 1)
    assert cfg.model.hierarchical_layers == (2, 4)
    assert load_config(None, {"model.hierarchical_layers": "null"}) == TrainConfig()
    assert TrainConfig.from_json(cfg.to_json()) == cfg


def _leaves(d, prefix=""):
    """Dotted path -> default value of every scalar config field."""
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out.update(_leaves(v, f"{prefix}{k}."))
        else:
            out[prefix + k] = v
    return out


_DEFAULTS = _leaves(TrainConfig().to_dict())
_NUMERIC = sorted(k for k, v in _DEFAULTS.items() if type(v) in (int, float))
_NAMES = sorted({p for k in _DEFAULTS for p in k.split(".")})


@settings(derandomize=True, max_examples=100, deadline=5000, database=None)
@given(key=st.sampled_from(_NUMERIC), unit=st.floats(0.0, 1.0),
       small=st.integers(1, 4),
       fmt=st.sampled_from([repr, "{:e}".format, "{:g}".format]))
def test_dotted_override_round_trip_properties(key, unit, small, fmt):
    """A numeric override given as command-line text, in any of Python's
    float spellings, sets its field to that number, and the config
    round-trips through to_json/from_json. A value the validation rejects
    raises ConfigError for the value, never for the key."""
    is_float = isinstance(_DEFAULTS[key], float)
    text = fmt(unit) if is_float else str(small)
    try:
        cfg = load_config(None, {key: text})
    except ConfigError as e:
        assert "unknown config key" not in str(e)
        reject()
    node = cfg
    for part in key.split("."):
        node = getattr(node, part)
    assert node == (float(text) if is_float else small)
    assert TrainConfig.from_json(cfg.to_json()) == cfg


@settings(derandomize=True, max_examples=100, deadline=5000, database=None)
@given(parts=st.lists(st.sampled_from(_NAMES)
                      | st.from_regex(r"[a-z_]{1,6}", fullmatch=True),
                      min_size=1, max_size=3))
def test_unknown_override_key_properties(parts):
    """Any dotted key that names no scalar field, whether made of real
    field names, made-up ones or a whole section, raises ConfigError."""
    key = ".".join(parts)
    assume(key not in _DEFAULTS)
    with pytest.raises(ConfigError):
        load_config(None, {key: "1"})
