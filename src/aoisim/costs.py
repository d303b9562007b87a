"""Age cost functions.

A cost function maps an integer age (in slots, >= 1) to a nonnegative cost.
All cost functions here are monotone nondecreasing and capped at a finite
bound so that per-slot debt increments stay bounded.

A ``CostFunction`` is a value: equality, hashing and pickling see only its
parameters. Runs keep their own tables of its prices.
"""

from __future__ import annotations

import math

# Effectively unreachable for any sane run length, but finite so that queue
# increments are bounded.
DEFAULT_CAP = 1e12

# each kind and the parameter it reads, besides cap
_PARAMETERS = {"linear": ("weight",), "power": ("exponent",), "exponential": (),
               "indicator": ("threshold",)}


class CostFunction:
    """Monotone age cost, one of: linear, power, exponential, indicator.

    linear(weight)      -> weight * h
    power(exponent)     -> h ** exponent
    exponential()       -> e ** h
    indicator(threshold)-> 1 if h >= threshold else 0

    Every value is clipped at ``cap``. ``f[age]`` is ``f(age)``, so the
    function reads as a cost table.
    """

    __slots__ = ("kind", "weight", "exponent", "threshold", "cap", "_exp_limit")

    def __init__(self, kind, weight=1.0, exponent=1.0, threshold=1, cap=DEFAULT_CAP):
        if kind not in _PARAMETERS:
            raise ValueError(f"unknown cost kind {kind!r}")
        if cap <= 0 or not math.isfinite(cap):
            raise ValueError("cap must be positive and finite")
        if kind == "linear" and not weight >= 0:  # NaN too
            raise ValueError("linear weight must be >= 0")
        if kind == "power" and not exponent >= 0:
            raise ValueError("power exponent must be >= 0")
        if kind == "indicator" and not (threshold >= 1 and threshold % 1 == 0):  # inf % 1 is NaN
            raise ValueError(f"indicator threshold must be a whole number >= 1, got {threshold!r}")
        self.kind = kind
        self.weight = float(weight)
        self.exponent = float(exponent)
        self.threshold = int(threshold)
        self.cap = float(cap)
        # math.exp overflows near 710; cap kicks in long before for sane caps.
        self._exp_limit = math.log(cap) if kind == "exponential" else 0.0

    @classmethod
    def linear(cls, weight=1.0, cap=DEFAULT_CAP):
        return cls("linear", weight=weight, cap=cap)

    @classmethod
    def power(cls, exponent, cap=DEFAULT_CAP):
        return cls("power", exponent=exponent, cap=cap)

    @classmethod
    def exponential(cls, cap=DEFAULT_CAP):
        return cls("exponential", cap=cap)

    @classmethod
    def indicator(cls, threshold, cap=DEFAULT_CAP):
        return cls("indicator", threshold=threshold, cap=cap)

    def __call__(self, age):
        if age < 1:
            raise ValueError(f"age must be >= 1, got {age}")
        k = self.kind
        if k == "linear":
            v = self.weight * age
        elif k == "power":
            try:
                v = float(age) ** self.exponent
            except OverflowError:
                return self.cap
        elif k == "exponential":
            if age >= self._exp_limit:
                return self.cap
            v = math.exp(age)
        else:  # indicator
            v = 1.0 if age >= self.threshold else 0.0
        return v if v < self.cap else self.cap

    def __getitem__(self, age):
        return self(age)

    def _key(self):
        return (self.kind, self.weight, self.exponent, self.threshold, self.cap)

    def __repr__(self):
        if self.kind == "linear":
            core = f"linear(weight={self.weight:g})"
        elif self.kind == "power":
            core = f"power(exponent={self.exponent:g})"
        elif self.kind == "exponential":
            core = "exponential()"
        else:
            core = f"indicator(threshold={self.threshold})"
        return f"CostFunction.{core}"

    def __eq__(self, other):
        if not isinstance(other, CostFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def from_dict(cls, d):
        """The cost a spec names: its ``kind``, that kind's parameter and
        ``cap``; any other key is an error, as the cost would not read it."""
        kind = d["kind"]
        if kind in _PARAMETERS:  # else the constructor names the kind
            unread = sorted(set(d) - {"kind", "cap", *_PARAMETERS[kind]})
            if unread:
                raise ValueError(f"{', '.join(map(repr, unread))} not read by cost kind {kind!r}")
        return cls(**d)

