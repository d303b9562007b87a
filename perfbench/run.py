"""The aoisim benchmark.

    python3 perfbench/run.py --workload single-hop --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout: it puts ``src`` first on the
module path, so it measures the package in that checkout and fails with a
nonzero exit when there is none. It repeats whole rounds of the workload
until ``--seconds`` have passed (at least one round), checks every output,
and prints one JSON object as its last line of output.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
of seven fresh-interpreter set-ups, spread over the run), ``wall_s`` and ``cpu_s`` (median per
round), ``slots_per_s`` (median per round) and ``peak_rss_mb``. With
``--trace 1`` the benchmark runs one round with every traced function
wrapped and reports the per-layer metrics; the spans go to
``perfbench/out/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7

PER_LAYER = [
    ("sim.run.calls", "count"), ("sim.slots", "count"), ("sim.run.self_s", "s"),
    ("policies.drift.calls", "count"), ("policies.drift.s", "s"),
    ("policies.age_debt_action.s", "s"), ("policies.expected_age_sum.calls", "count"),
    ("policies.single_hop_age_debt_action.s", "s"), ("policies.max_weight_action.s", "s"),
    ("policies.sample_index.s", "s"), ("policies.optimize_randomized.calls", "count"),
    ("policies.optimize_randomized.s", "s"), ("costs.calls", "count"),
    ("channels.init.s", "s"), ("channels.slot.s", "s"), ("age.advance_age.s", "s"),
    ("age.update_destination_debt.s", "s"), ("age.update_intermediate_debt.s", "s"),
    ("age.restricted_hop_distance.calls", "count"), ("targets.flow_control_update.s", "s"),
    ("dp.solve_s.reliable-foa", "s"), ("dp.solve_s.unreliable-linear", "s"),
    ("dp.solve_s.unreliable-foa", "s"), ("dp.iterations.reliable-foa", "count"),
    ("dp.iterations.unreliable-linear", "count"), ("dp.iterations.unreliable-foa", "count"),
    ("network.build_action_space.s", "s"), ("network.actions", "count"),
    ("scenarios.enumerate_connected_graphs.s", "s"), ("sweep.run_sweep.s", "s"),
    ("sweep.tasks", "count"), ("sweep.expand_scenarios.calls", "count"),
    ("sweep.build_sim_config.s", "s"),
]


def _use_checkout_source():
    """Import aoisim from this checkout's src, or exit nonzero."""
    if not os.path.isfile(os.path.join(SRC, "aoisim", "__init__.py")):
        print(f"no aoisim package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def probe_setup(workload, seed):
    """Time import plus input building in this fresh interpreter."""
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload][0](seed)
    return time.perf_counter() - t0


def measure_setup(workload, seed):
    """One set-up in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def per_layer_metrics(tracer, extras):
    """Per-layer values: the round's own figures (DP solves, sweep tasks),
    then the tracer's counters, then ``<span>.calls``, ``<span>.s`` (total
    time) or ``<span>.self_s``; 0 where the workload makes no such call."""
    out = {}
    for name, unit in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in extras:
            v = extras[name]
        elif name in tracer.counters:
            v = tracer.counters[name]
        elif kind == "calls":
            v = tracer.calls(span)
        elif kind == "s":
            v = tracer.total_s(span)
        elif kind == "self_s":
            v = tracer.self_s(span)
        else:
            v = 0
        out[name] = {"value": v, "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout_source()
    if args.probe_setup:
        print(f"{probe_setup(args.workload, args.seed):.9f}")
        return 0

    import refs
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    setup, setup_checks, round_fn = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"

    selftest_failures = refs.selftest()
    for msg in selftest_failures:
        print(f"reference self-test failed: {msg}", file=sys.stderr)

    tracer = None
    if args.trace:
        from tracer import Tracer
        worker_dir = os.path.join(OUT, f"trace-workers-{tag}-{os.getpid()}")
        os.makedirs(worker_dir, exist_ok=True)
        tracer = Tracer(worker_dir)
        tracer.install()

    ledger = workloads.Ledger()
    rounds = []   # (wall_s, cpu_s, slots_per_s)
    extras = {}
    inputs = setup(args.seed)
    setup_checks(inputs, ledger)
    # Set-up probes run between rounds, so that set-up time is sampled over
    # the whole run; peak memory is read after the first round, before any
    # probe process is reaped (later rounds repeat the same work).
    setup_times = []
    rss = None
    spent = 0.0
    try:
        while True:
            t0 = time.perf_counter()
            meter = workloads.Meter()
            extras.clear()
            round_fn(inputs, ledger, meter, extras, OUT)
            spent += time.perf_counter() - t0
            rounds.append((meter.wall_s, meter.cpu_s, meter.run_slots / meter.run_s))
            print(f"round {len(rounds)}: wall_s {meter.wall_s:.4f} cpu_s {meter.cpu_s:.4f} "
                  f"slots_per_s {rounds[-1][2]:.1f}", file=sys.stderr)
            if tracer is not None:
                break
            if rss is None:
                rss = peak_rss_mb()
            if spent >= args.seconds:
                break
            if len(setup_times) < SETUP_PROBES:
                setup_times.append(measure_setup(args.workload, args.seed))
    except Exception as exc:  # a program call raised: count it as a failed operation
        import traceback
        traceback.print_exc()
        ledger.op("round").check(False, f"{type(exc).__name__}: {exc}")

    unexpected = ledger.unexpected()
    for name, msg in unexpected:
        print(f"check failed: {name}: {msg}", file=sys.stderr)
    for name, msg in ledger.known():
        print(f"known fault: {name}: {msg}", file=sys.stderr)
    correct = not (unexpected or selftest_failures) and bool(rounds)

    if tracer is not None:
        tracer.uninstall()
        tracer.merge_workers()
        os.rmdir(tracer.worker_dir)
        metrics = per_layer_metrics(tracer, extras)
        traced_wall = rounds[0][0] if rounds else None
        with open(os.path.join(OUT, f"trace-{tag}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_wall_s": traced_wall, "absent": tracer.absent,
                       "totals": tracer.totals, "counters": tracer.counters,
                       "extras": extras, "spans": tracer.spans}, fh)
        for name in tracer.absent:
            print(f"trace: absent {name}", file=sys.stderr)
        print(f"trace: traced wall_s {traced_wall}; the tracing overhead is this minus "
              f"the untraced wall_s", file=sys.stderr)
    else:
        metrics = {}
        if rounds:
            while len(setup_times) < SETUP_PROBES:
                setup_times.append(measure_setup(args.workload, args.seed))
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "wall_s": {"value": statistics.median(r[0] for r in rounds), "unit": "s"},
                "cpu_s": {"value": statistics.median(r[1] for r in rounds), "unit": "s"},
                "slots_per_s": {"value": statistics.median(r[2] for r in rounds),
                                "unit": "slots/s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
        print(f"rounds: {len(rounds)}", file=sys.stderr)

    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
