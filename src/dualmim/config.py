"""Whole-run configuration: nested dataclasses, validation, file loading.

Config files are YAML (nested key/value); unknown keys are rejected.
Every checkpoint and metrics file embeds the full config verbatim as
sorted-key JSON so runs are self-describing.
"""

import dataclasses
import functools
import json
from dataclasses import dataclass, field, fields

import yaml

from .data import AugmentConfig
from .ema import PER_EPOCH, PER_ITERATION
from .errors import ConfigError
from .losses import LossWeights
from .masking import validate_masking
from .pseudolabel import TEMPERATURE_FLOOR
from .vit import ProjectionHeadConfig, ViTConfig

TEACHER_DUAL = "dual"
TEACHER_SINGLE = "single"


@dataclass
class MaskingConfig:
    ratio: float = 0.75
    num_folds: int = 3


@dataclass
class EmaConfig:
    start_momentum: float
    end_momentum: float
    frequency: str


@dataclass
class SinkhornConfig:
    n_iters: int = 3
    teacher_temperature: float = 0.05
    student_temperature: float = 0.1


@dataclass
class OptimConfig:
    lr: float = 1.5e-3
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.95
    warmup_epochs: int = 5
    total_epochs: int = 20
    batch_size: int = 128


@dataclass
class TrainConfig:
    model: ViTConfig = field(default_factory=ViTConfig)
    head: ProjectionHeadConfig = field(default_factory=ProjectionHeadConfig)
    masking: MaskingConfig = field(default_factory=MaskingConfig)
    ema_rec: EmaConfig = field(default_factory=lambda: EmaConfig(
        start_momentum=0.96, end_momentum=0.99, frequency=PER_EPOCH))
    ema_cl: EmaConfig = field(default_factory=lambda: EmaConfig(
        start_momentum=0.996, end_momentum=1.0, frequency=PER_ITERATION))
    teacher_mode: str = TEACHER_DUAL
    # single-teacher mode takes its schedule from ema_rec
    loss: LossWeights = field(default_factory=LossWeights)
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    augmentation_mode: str = "dual"        # "dual" | "simple_only"
    multifold_pseudo_labeling: bool = True
    seed: int = 0
    log_every: int = 1

    # -- validation -------------------------------------------------------

    def validate(self):
        # sizes that divide or count: checked before the model's own checks
        for dotted in ("model.patch_size", "model.in_channels",
                       "model.embed_dim", "model.depth", "model.num_heads",
                       "model.mlp_ratio", "model.decoder_dim", "log_every",
                       "head.hidden_dim", "head.num_shared_layers"):
            if not functools.reduce(getattr, dotted.split("."), self) > 0:
                raise ConfigError(f"{dotted} must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")
        self.model.validate()
        n = self.model.num_patches
        validate_masking(n, self.masking.ratio, self.masking.num_folds)
        for name, ema in (("ema_rec", self.ema_rec), ("ema_cl", self.ema_cl)):
            if not 0.0 <= ema.start_momentum <= ema.end_momentum <= 1.0:
                raise ConfigError(f"{name}: momenta must satisfy "
                                  f"0 <= start <= end <= 1")
            if ema.frequency not in (PER_EPOCH, PER_ITERATION):
                raise ConfigError(f"{name}: unknown frequency '{ema.frequency}'")
        if self.teacher_mode not in (TEACHER_DUAL, TEACHER_SINGLE):
            raise ConfigError(f"unknown teacher_mode '{self.teacher_mode}'")
        if self.augmentation_mode not in ("dual", "simple_only"):
            raise ConfigError(
                f"unknown augmentation_mode '{self.augmentation_mode}'")
        for lam in (self.loss.lambda_m, self.loss.lambda_c, self.loss.lambda_p):
            if lam < 0:
                raise ConfigError("loss weights must be nonnegative")
        for name in ("teacher_temperature", "student_temperature"):
            if getattr(self.sinkhorn, name) < TEMPERATURE_FLOOR:
                raise ConfigError(f"{name} must be >= {TEMPERATURE_FLOOR}")
        if self.sinkhorn.n_iters < 1:
            raise ConfigError("sinkhorn n_iters must be >= 1")
        if self.optim.total_epochs < 1 or self.optim.batch_size < 1:
            raise ConfigError("total_epochs and batch_size must be >= 1")
        if not 0 <= self.optim.warmup_epochs <= self.optim.total_epochs:
            raise ConfigError("warmup_epochs must be within total_epochs")
        if self.head.output_dim < 2:
            raise ConfigError("prototype count must be >= 2")
        return self

    # -- (de)serialization --------------------------------------------------

    def to_dict(self):
        return dataclasses.asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        return _build(cls, d, path="")

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json.loads(s))


def _build(dc_type, d, path):
    """Construct a dataclass from a nested dict, rejecting unknown keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"expected a mapping at '{path or '.'}', got {type(d).__name__}")
    known = {f.name: f for f in fields(dc_type)}
    unknown = set(d) - set(known)
    if unknown:
        raise ConfigError(
            f"unknown config key{'s' if len(unknown) > 1 else ''} at "
            f"'{path or '.'}': {', '.join(sorted(unknown))}")
    kwargs = {}
    for name, val in d.items():
        f = known[name]
        where = f"{path}.{name}".lstrip(".")
        if dataclasses.is_dataclass(f.type):
            kwargs[name] = _build(f.type, val, where)
        else:
            kwargs[name] = _scalar(f, val, where)
    return dc_type(**kwargs)


_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "text", tuple: "a list"}


def _scalar(f, val, where):
    """`val` as the value of the scalar field `f`, or ConfigError when it
    does not fit the field's annotation. bool is not taken for a number."""
    if f.type is tuple:
        if isinstance(val, (list, tuple)):
            return tuple(val)
        if val is None and f.default is None:
            return None
    elif f.type is float and isinstance(val, str):
        try:    # YAML 1.1 reads an exponent without a dot, 1e-4, as text
            return float(val)
        except ValueError:
            pass
    elif f.type is float:
        if type(val) in (int, float):   # an int stays an int in to_json
            return val
    elif type(val) is f.type:
        return val
    raise ConfigError(f"'{where}' must be {_KINDS[f.type]}, got {val!r}")


def load_config(path=None, overrides=None):
    """Build a validated TrainConfig from the defaults, an optional YAML
    file, then overrides keyed by dotted path, e.g. {'loss.lambda_c': '0',
    'seed': '5'}; a text value is read as YAML. The file and each override
    go through the same merge, so an unknown key fails alike in both."""
    base = TrainConfig().to_dict()
    if path is not None:
        with open(path) as fh:
            _merge(base, yaml.safe_load(fh) or {}, "")
    for key, val in (overrides or {}).items():
        if isinstance(val, str):
            val = yaml.safe_load(val)
        for part in reversed(key.split(".")):
            val = {part: val}
        _merge(base, val, "")
    cfg = TrainConfig.from_dict(base)
    cfg.validate()
    return cfg


def _merge(base, incoming, path):
    if not isinstance(incoming, dict):
        raise ConfigError(f"expected a mapping at '{path or '.'}'")
    for key, val in incoming.items():
        if key not in base:
            raise ConfigError(f"unknown config key at '{path or '.'}': {key}")
        if isinstance(base[key], dict):
            _merge(base[key], val, f"{path}.{key}".lstrip("."))
        else:
            base[key] = val
