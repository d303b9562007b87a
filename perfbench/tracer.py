"""Per-module tracing of the aoisim public API, from outside the package.

``Tracer.install`` replaces each traced function by a wrapper under the name
its caller looks it up by (``aoisim.sim.advance_age``, not only
``aoisim.age.advance_age``), and each traced method on its class. A wrapper
either times the call (count, total and self time, where self time leaves
out time spent in traced callees) or only counts it. Totals are kept in
memory and written once, when the benchmark ends.

Sweep workers are forked, so they inherit the wrappers. The first task a
worker runs clears the totals it inherited, and the worker writes its own
totals to a file when it exits; ``merge_workers`` adds them to the parent's.
A traced name that the package no longer has is listed as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import time

# (span name, [lookup sites], how): how is "time" or "count". A lookup site
# is "module:attribute" or "module:Class.method".
TRACED = [
    ("sim.run", ["aoisim.sim:run", "aoisim.sweep:run", "aoisim:run"], "time"),
    ("policies.drift", ["aoisim.policies:DriftEvaluator.drift"], "time"),
    ("policies.age_debt_action", ["aoisim.sim:age_debt_action",
                                  "aoisim:age_debt_action"], "time"),
    ("policies.expected_age_sum", ["aoisim.policies:DriftEvaluator.expected_age_sum"],
     "count"),
    ("policies.single_hop_age_debt_action", ["aoisim.sim:single_hop_age_debt_action"],
     "time"),
    ("policies.max_weight_action", ["aoisim.sim:max_weight_action"], "time"),
    ("policies.sample_index", ["aoisim.policies:RandomizedPolicy.sample_index"], "time"),
    ("policies.optimize_randomized", ["aoisim.sweep:optimize_randomized",
                                      "aoisim:optimize_randomized"], "time"),
    ("costs", ["aoisim.costs:CostFunction.__call__"], "count"),
    ("channels.init", ["aoisim.channels:ChannelProcess.__init__"], "time"),
    ("channels.slot", ["aoisim.channels:ChannelProcess.slot"], "time"),
    ("age.advance_age", ["aoisim.sim:advance_age"], "time"),
    ("age.update_destination_debt", ["aoisim.sim:update_destination_debt"], "time"),
    ("age.update_intermediate_debt", ["aoisim.sim:update_intermediate_debt"], "time"),
    ("age.restricted_hop_distance", ["aoisim.sim:restricted_hop_distance",
                                     "aoisim.age:restricted_hop_distance",
                                     "aoisim.policies:restricted_hop_distance"], "count"),
    ("targets.flow_control_update", ["aoisim.sim:flow_control_update"], "time"),
    ("dp.dp_optimal", ["aoisim.dp:dp_optimal", "aoisim:dp_optimal"], "time"),
    ("network.build_action_space", ["aoisim.network:build_action_space"], "time"),
    ("scenarios.enumerate_connected_graphs", [
        "aoisim.sweep:enumerate_connected_graphs", "aoisim:enumerate_connected_graphs",
        "aoisim.scenarios:enumerate_connected_graphs"], "time"),
    ("sweep.run_sweep", ["aoisim.sweep:run_sweep", "aoisim:run_sweep"], "time"),
    ("sweep.expand_scenarios", ["aoisim.sweep:expand_scenarios"], "time"),
    ("sweep.build_sim_config", ["aoisim.sweep:build_sim_config"], "time"),
]

# spans kept one by one (the rest are only totalled)
KEEP_SPANS = {"sim.run", "dp.dp_optimal", "network.build_action_space",
              "policies.optimize_randomized", "scenarios.enumerate_connected_graphs",
              "sweep.run_sweep", "sweep.expand_scenarios", "sweep.build_sim_config"}

_WORKER_SITE = "aoisim.sweep:_worker"


def _resolve(site):
    mod_name, _, attr = site.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None, None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, name):
        return None, None
    return owner, name


class Tracer:
    """Call counts, total time and self time per span name."""

    def __init__(self, worker_dir):
        self.worker_dir = worker_dir
        self.totals = {}     # name -> [calls, total_s, self_s]
        self.counters = {}   # name -> int, extra counts (slots, actions)
        self.spans = []      # (name, pid, start, end, parent index or None)
        self.absent = []
        self._stack = []     # [child time, span index or None] per open call
        self._pid = os.getpid()
        self.root_pid = self._pid
        self._installed = []

    # ---- wrappers

    def _timed(self, name, fn, on_call=None):
        keep = name in KEEP_SPANS
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = None
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                idx = len(spans)
                spans.append([name, os.getpid(), 0.0, 0.0, parent])
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx is not None:
                    spans[idx][2] = t0
                    spans[idx][3] = t0 + dur
        return wrapper

    def _counted(self, name, fn):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_slots(self, args, kwargs):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        self.counters["sim.slots"] = self.counters.get("sim.slots", 0) + cfg.horizon

    def _worker_entry(self, fn):
        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() != self._pid:
                # first task in a forked worker: drop the parent's totals
                self._pid = os.getpid()
                self._reset()
                multiprocessing.util.Finalize(None, self.write_worker, exitpriority=10)
            return fn(task)
        return wrapper

    def _reset(self):
        for v in self.totals.values():
            v[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.spans.clear()
        self._stack.clear()

    # ---- install / uninstall

    def install(self):
        for name, sites, how in TRACED:
            found = False
            for site in sites:
                owner, attr = _resolve(site)
                if owner is None:
                    continue
                found = True
                orig = getattr(owner, attr)
                if how == "count":
                    new = self._counted(name, orig)
                elif name == "network.build_action_space":
                    new = self._timed(name, self._count_actions(orig))
                else:
                    on_call = self._count_slots if name == "sim.run" else None
                    new = self._timed(name, orig, on_call)
                setattr(owner, attr, new)
                self._installed.append((owner, attr, orig))
            if not found:
                self.absent.append(name)
        owner, attr = _resolve(_WORKER_SITE)
        if owner is not None:
            orig = getattr(owner, attr)
            setattr(owner, attr, self._worker_entry(orig))
            self._installed.append((owner, attr, orig))

    def _count_actions(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            space = fn(*args, **kwargs)
            if os.getpid() == self.root_pid:
                self.counters["network.actions"] = (
                    self.counters.get("network.actions", 0) + len(space))
            return space
        return wrapper

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # ---- output

    def write_worker(self):
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"totals": self.totals, "counters": self.counters,
                       "spans": self.spans}, fh)

    def merge_workers(self):
        """Add every worker's totals to this process's, then remove the files."""
        for fname in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, fname)
            with open(path) as fh:
                snap = json.load(fh)
            os.remove(path)
            for name, (calls, total, self_s) in snap["totals"].items():
                t = self.totals.setdefault(name, [0, 0.0, 0.0])
                t[0] += calls
                t[1] += total
                t[2] += self_s
            for name, v in snap["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + v
            base = len(self.spans)
            for (name, pid, start, end, parent) in snap["spans"]:
                self.spans.append([name, pid, start, end,
                                   None if parent is None else parent + base])

    def calls(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[2]
