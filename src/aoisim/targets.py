"""Dynamic selection of per-pair average-cost targets.

Two schemes drive the targets: an epoch-level gradient-descent rule that
nudges targets up for pairs whose debt queues blew past a threshold during
the epoch (and down for everyone when all queues stayed small), and a
per-slot flow-control rule that snaps each target to 1 or alpha_max depending
on whether the pair's current debt exceeds V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import is_int


@dataclass
class GradientDescentConfig:
    epoch_length: int                    # W, slots per epoch; the run's horizon sets the epochs
    step: float                          # eta > 0
    threshold: float                     # epsilon > 0; unstable iff Q(W) > eps*W
    initial: dict = field(default_factory=dict)   # pair -> starting target
    floor: dict = None                   # pair -> alpha_min; None = f(1) per pair

    def __post_init__(self):
        if not (is_int(self.epoch_length) and self.epoch_length >= 1):
            raise ValueError(f"epoch_length must be an integer >= 1, got {self.epoch_length!r}")
        if not (0 < self.step < math.inf and 0 < self.threshold < math.inf):  # NaN too
            raise ValueError("step and threshold must be finite and > 0")


@dataclass
class FlowControlConfig:
    V: float
    alpha_max: float

    def __post_init__(self):
        if not 0 < self.V < math.inf:  # NaN too
            raise ValueError("V must be finite and > 0")
        if not 1 <= self.alpha_max < math.inf:
            raise ValueError("alpha_max must be finite and >= 1")


def gd_epoch_update(targets, debt_at_epoch_end, cfg, floor=None):
    """Epoch-boundary target step.

    If any pair's end-of-epoch debt exceeds threshold * W, bump exactly those
    pairs' targets by +step and leave the rest; otherwise lower every target
    by step. Targets are floored at ``floor[pair]`` (0 disables flooring and
    gives the raw rule, which can descend into never-achievable territory).
    """
    w = cfg.epoch_length
    unstable = {pair for pair, q in debt_at_epoch_end.items() if q > cfg.threshold * w}
    out = {}
    for pair, a in targets.items():
        if unstable:
            na = a + cfg.step if pair in unstable else a
        else:
            na = a - cfg.step
        if floor is not None:
            na = max(na, floor.get(pair, 0.0))
        out[pair] = na
    return out
