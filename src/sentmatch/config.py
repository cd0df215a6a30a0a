"""Training configuration: defaults, file parsing, overrides, fingerprint.

Config files are plain `key = value` lines (# starts a comment); every
field of TrainConfig is addressable both there and as a `--key value`
command line override. A retired key (`RETIRED`) still reads at its
old default, so earlier config echoes and checkpoints load; any other
value of it is a ConfigError naming the key.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .data import task_spec
from .embedding import _text_lines
from .errors import ConfigError

# Keys that earlier versions wrote into every config echo and checkpoint
# manifest, each with the one value that still reads: the batch-sum loss
# and ranking eval over questions without a correct answer are gone.
RETIRED = {"sum_loss": False, "include_unanswerable": False}


@dataclass
class TrainConfig:
    task: str = "snli"
    static_dim: int = 300
    contextual_dim: int = 1024
    hidden: int = 150
    kernel: int = 3
    lr: float = 0.0005
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    dropout: float = 0.2
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0
    max_len: int = 0  # 0 means the task default cap
    grad_clip: float = 5.0
    freeze_static: bool = False
    pool: str = "splice"  # or "meanmax" (comparison only)
    early_stop_patience: int = 0  # 0 disables early stopping
    # ablation switches
    no_elmo: bool = False
    no_alignment: bool = False
    no_fusion: bool = False
    no_self_attention: bool = False
    only_h2p: bool = False
    only_p2h: bool = False

    ABLATION_FLAGS = (
        "no_elmo",
        "no_alignment",
        "no_fusion",
        "no_self_attention",
        "only_h2p",
        "only_p2h",
    )

    def validate(self):
        task_spec(self.task)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ConfigError(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ConfigError(f"grad_clip must be finite and non-negative (0 disables clipping), got {self.grad_clip}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError(f"batch_size and epochs must be at least 1, got {self.batch_size} and {self.epochs}")
        if self.max_len < 0 or self.contextual_dim < 0:
            raise ConfigError(f"max_len and contextual_dim must not be negative, got {self.max_len} and {self.contextual_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel width must be odd and at least 1, got {self.kernel}")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if self.early_stop_patience < 0:
            raise ConfigError(f"early_stop_patience must not be negative (0 disables early stopping), got {self.early_stop_patience}")
        if self.only_h2p and self.only_p2h:
            raise ConfigError("only_h2p and only_p2h are mutually exclusive")
        if self.pool not in ("splice", "meanmax"):
            raise ConfigError(f"pool must be 'splice' or 'meanmax', got {self.pool!r}")
        if self.hidden < 1 or self.static_dim < 1:
            raise ConfigError("hidden and static_dim must be at least 1")
        return self

    @property
    def effective_contextual_dim(self):
        return 0 if self.no_elmo else self.contextual_dim

    @property
    def effective_max_len(self):
        return self.max_len if self.max_len > 0 else task_spec(self.task).max_len

    def fingerprint(self):
        """Canonical name for the ablation variant this config encodes."""
        active = [f for f in self.ABLATION_FLAGS if getattr(self, f)]
        return "+".join(active) if active else "full"

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, values):
        cfg = cls()
        cfg.apply(values)
        return cfg

    def apply(self, values):
        """Set fields from a {key: string-or-typed-value} mapping."""
        fields = {f.name: f for f in dataclasses.fields(self)}
        for key, raw in values.items():
            if key in fields:
                setattr(self, key, _coerce(raw, type(getattr(self, key)), key))
            elif key in RETIRED:
                if _coerce(raw, type(RETIRED[key]), key) != RETIRED[key]:
                    raise ConfigError(f"config key {key!r} is retired; only its old value {RETIRED[key]} still reads, got {raw!r}")
            else:
                raise ConfigError(
                    f"unknown config key {key!r}; valid keys: {', '.join(sorted(fields))}"
                )
        return self


def _coerce(raw, target, key):
    if isinstance(raw, bool) and target is not bool:  # bool is an int subclass: True is no count
        raise ConfigError(f"config key {key}: cannot read the boolean {raw!r} as {target.__name__}")
    if isinstance(raw, target):
        return raw
    text = str(raw).strip()
    if target is bool:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: cannot read {text!r} as a boolean")
    try:
        return target(text)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot read {text!r} as {target.__name__}") from None


def read_config_file(path):
    """Parse `key = value` lines into a dict of raw strings; a key given twice is refused."""
    values, first_line = {}, {}
    for line_no, line in _text_lines(path, ConfigError):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}:{line_no}: key {key!r} repeats line {first_line[key]}")
        values[key], first_line[key] = value, line_no
    return values
