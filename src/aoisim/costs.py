"""Age cost functions.

A cost function maps an integer age (in slots, >= 1) to a nonnegative cost.
All cost functions here are monotone nondecreasing and capped at a finite
bound so that per-slot debt increments stay bounded.

The simulator reads costs from a table by age (``CostFunction.table``) that
``__call__`` fills, so each value has the call's bits. The table is a cache,
outside equality, hashing, ``to_dict`` and pickling.
"""

from __future__ import annotations

import math
from array import array

# Effectively unreachable for any sane run length, but finite so that queue
# increments are bounded.
DEFAULT_CAP = 1e12


class CostFunction:
    """Monotone age cost, one of: linear, power, exponential, indicator.

    linear(weight)      -> weight * h
    power(exponent)     -> h ** exponent
    exponential()       -> e ** h
    indicator(threshold)-> 1 if h >= threshold else 0

    Every value is clipped at ``cap``. ``f[age]`` reads the table.
    """

    __slots__ = ("kind", "weight", "exponent", "threshold", "cap", "_exp_limit", "_table")

    def __init__(self, kind, weight=1.0, exponent=1.0, threshold=1, cap=DEFAULT_CAP):
        if kind not in ("linear", "power", "exponential", "indicator"):
            raise ValueError(f"unknown cost kind {kind!r}")
        if cap <= 0 or not math.isfinite(cap):
            raise ValueError("cap must be positive and finite")
        if kind == "linear" and weight < 0:
            raise ValueError("linear weight must be >= 0")
        if kind == "power" and exponent < 0:
            raise ValueError("power exponent must be >= 0")
        if kind == "indicator" and threshold < 1:
            raise ValueError("indicator threshold must be >= 1")
        self.kind = kind
        self.weight = float(weight)
        self.exponent = float(exponent)
        self.threshold = int(threshold)
        self.cap = float(cap)
        # math.exp overflows near 710; cap kicks in long before for sane caps.
        self._exp_limit = math.log(cap) if kind == "exponential" else 0.0
        self._table = array("d", [math.nan])  # index 0: no age 0

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

    def table(self, size):
        """The table, an ``array('d')`` of at least ``size`` entries: entry a
        is the cost of age a (0 is unused). It grows in place, by at least
        doubling, so callers may keep it and read it directly."""
        tab = self._table
        if len(tab) < size:
            tab.extend(map(self, range(len(tab), max(size, 2 * len(tab)))))
        return tab

    def __getitem__(self, age):
        return self.table(age + 1)[age]

    def _key(self):
        return (self.kind, self.weight, self.exponent, self.threshold, self.cap)

    def __reduce__(self):
        return (CostFunction, self._key())  # pickles without the table

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

    def to_dict(self):
        d = {"kind": self.kind}
        if self.kind == "linear":
            d["weight"] = self.weight
        elif self.kind == "power":
            d["exponent"] = self.exponent
        elif self.kind == "indicator":
            d["threshold"] = self.threshold
        if self.cap != DEFAULT_CAP:
            d["cap"] = self.cap
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(d["kind"], weight=d.get("weight", 1.0), exponent=d.get("exponent", 1.0),
                   threshold=d.get("threshold", 1), cap=d.get("cap", DEFAULT_CAP))


class _CallTable:
    """A plain cost callable read as a table: every lookup calls it."""

    def __init__(self, f):
        self.f = f

    def __getitem__(self, age):
        return self.f(age)

    def table(self, size):
        return self


def as_table(f):
    """``f`` if it is a ``CostFunction``, else a table view that calls it."""
    return f if isinstance(f, CostFunction) else _CallTable(f)
