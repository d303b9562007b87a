"""Command-line interface.

Subcommands:
  run       one experiment (config must describe a single scenario)
  sweep     expand the config into scenarios and run everything
  dp        solve the DP oracle for the config's scenario; print gain and
            per-pair targets, optionally export the policy table
  graphs    emit the connected-graph enumeration for a node count
  validate  check a config and report every problem

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .config import load_config
from .scenarios import enumerate_connected_graphs
from .sweep import check_policies, expand_scenarios, run_sweep

CONFIG_ERROR = 1
RUNTIME_ERROR = 2


def _parser():
    p = argparse.ArgumentParser(prog="aoisim",
                                description="Age-of-information scheduling experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--seed", type=int, help="override: run only this seed")
        sp.add_argument("--horizon", type=int, help="override sim.horizon")
        sp.add_argument("--out", help="output CSV path")
        sp.add_argument("--policy", help="run only policies whose label matches")
        sp.add_argument("--jobs", type=int, default=1, help="parallel workers")
        sp.add_argument("--timing", action="store_true",
                        help="fill wall_ms (breaks byte-identical reruns)")

    common(sub.add_parser("run", help="run a single experiment"))
    common(sub.add_parser("sweep", help="run a scenario sweep"))
    dp = sub.add_parser("dp", help="solve the DP oracle and export targets")
    dp.add_argument("--config", required=True, help="JSON config path")
    dp.add_argument("--out", help="policy table CSV path")
    dp.add_argument("--a-cap", type=int, default=30, dest="a_cap",
                    help="age cap per tracked pair")
    dp.add_argument("--tolerance", type=float, default=1e-3)
    g = sub.add_parser("graphs", help="emit connected-graph enumeration")
    g.add_argument("--n", type=int, required=True, help="node count (2..7)")
    g.add_argument("--out", help="output CSV path (default stdout)")
    v = sub.add_parser("validate", help="validate a config")
    v.add_argument("--config", required=True)
    return p


def _load(path):
    try:
        config, errors = load_config(path)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(CONFIG_ERROR)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        raise SystemExit(CONFIG_ERROR)
    return config


def _apply_overrides(config, args):
    if args.horizon is not None:
        config.sim["horizon"] = args.horizon
    if args.seed is not None:
        config.sim["seeds"] = [args.seed]
    if args.policy is not None:
        keep = [p for p in config.policies
                if p.get("label") == args.policy or p.get("name") == args.policy]
        if not keep:
            print(f"config error: no policy matches {args.policy!r}", file=sys.stderr)
            raise SystemExit(CONFIG_ERROR)
        config.policies = keep
    return config


def cmd_run(args):
    config = _apply_overrides(_load(args.config), args)
    scenarios = expand_scenarios(config)
    if len(scenarios) != 1:
        print(f"config error: 'run' needs a single scenario, config expands to "
              f"{len(scenarios)} (use 'sweep')", file=sys.stderr)
        return CONFIG_ERROR
    out = args.out or config.out or "results.csv"
    run_sweep(config, out, jobs=args.jobs, timing=args.timing)
    print(f"wrote {out}")
    return 0


def cmd_sweep(args):
    config = _apply_overrides(_load(args.config), args)
    out = args.out or config.out or "sweep.csv"
    rows = run_sweep(config, out, jobs=args.jobs, timing=args.timing)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_dp(args):
    from .dp import dp_optimal, export_table

    scenarios = expand_scenarios(_load(args.config))
    if len(scenarios) != 1:
        print("config error: 'dp' needs a single scenario", file=sys.stderr)
        return CONFIG_ERROR
    scenario = scenarios[0]
    sol = dp_optimal(scenario.instance, scenario.cost_fns,
                     a_cap=args.a_cap, tolerance=args.tolerance)
    print(f"gain: {sol.gain:.6g}")
    for pair, v in sorted(sol.per_pair_average.items()):
        print(f"target alpha_{pair[0]}_{pair[1]}: {v:.6g}")
    if args.out:
        export_table(sol, args.out)
        targets_path = args.out + ".targets.json"
        with open(targets_path, "w") as fh:
            json.dump({f"{k}-{j}": v for (k, j), v in sol.per_pair_average.items()},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out} and {targets_path}")
    return 0


def cmd_graphs(args):
    graphs = enumerate_connected_graphs(args.n)
    rows = [(gid, args.n, ";".join(f"{i}-{j}" for (i, j) in edges))
            for gid, edges in enumerate(graphs)]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["graph_id", "n", "edges"])
            w.writerows(rows)
        print(f"wrote {args.out} ({len(rows)} graphs)")
    else:
        print("graph_id,n,edges")
        for row in rows:
            print(",".join(str(x) for x in row))
    return 0


def cmd_validate(args):
    config = _load(args.config)
    check_policies(config, expand_scenarios(config))
    print("ok")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "dp": cmd_dp,
                "graphs": cmd_graphs, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code
    except ValueError as exc:  # one problem per line
        print("\n".join(f"config error: {e}" for e in str(exc).splitlines()), file=sys.stderr)
        return CONFIG_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
