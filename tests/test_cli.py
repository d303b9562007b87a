import json
import os
import subprocess
import sys

import pytest

from aoisim.cli import main


TWO_HOP_CONFIG = {
    "network": {"nodes": 3, "edges": ["1-2:1.0", "2-3:1.0"]},
    "flows": [{"source": 1, "destinations": [3]}],
    "interference": {"model": "single-transmitter", "eligibility": "path"},
    "costs": {"default": {"kind": "linear", "weight": 1.0}},
    "policies": [
        {"name": "age-debt", "target_mode": "fixed", "targets": 2.5,
         "tie_break": "freshest", "label": "ad"},
        {"name": "randomized", "probabilities": [0.0, 0.5, 0.5], "label": "coin"},
    ],
    "sim": {"horizon": 2000, "seeds": [0, 1]},
}


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(TWO_HOP_CONFIG))
    return p


def test_validate_ok(config_path, capsys):
    assert main(["validate", "--config", str(config_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"network": {"nodes": 1}}')
    assert main(["validate", "--config", str(p)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["validate", "--config", "/nonexistent/x.json"]) == 1


def test_run_writes_csv_and_is_byte_identical(config_path, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("scenario_id,graph_id,policy,seed,T,sum_cost,"
                             "stability_violations,max_QT_over_T,wall_ms")
    assert "cost_1_3" in header


def test_run_policy_filter(config_path, tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--policy", "coin"]) == 0
    body = out.read_text()
    assert "ad" not in body.splitlines()[1]
    assert main(["run", "--config", str(config_path), "--policy", "nope"]) == 1


def test_run_seed_and_horizon_overrides(config_path, tmp_path):
    out = tmp_path / "s.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--seed", "5", "--horizon", "100"]) == 0
    rows = out.read_text().splitlines()
    data = [r for r in rows[1:] if ",5," in r or r.split(",")[3] == "5"]
    assert all(",100," in r for r in rows[1:])


def test_run_rejects_multi_scenario(tmp_path, capsys):
    cfg = {
        "network": {"generator": "line", "sizes": [3, 4], "interference": "parity"},
        "policies": [],
        "sim": {"horizon": 10, "seeds": [0]},
    }
    p = tmp_path / "multi.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 1
    assert "use 'sweep'" in capsys.readouterr().err


def test_sweep_empty_policies_header_only(tmp_path):
    cfg = {
        "network": {"generator": "line", "sizes": [3, 4], "interference": "parity"},
        "policies": [],
        "sim": {"horizon": 10, "seeds": [0]},
    }
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only


def test_sweep_line_scenarios(tmp_path):
    # fixed probabilities cannot span scenarios of different sizes: tune instead
    cfg = {
        "network": {"generator": "line", "sizes": [3, 4], "interference": "parity"},
        "policies": [{"name": "randomized", "budget": 10,
                      "tuning_horizon": 200, "label": "rnd"}],
        "sim": {"horizon": 300, "seeds": [0]},
    }
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # 2 scenarios x (1 seed + mean + stderr)
    assert len(lines) == 1 + 2 * 3


def test_graphs_counts(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["graphs", "--n", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 21
    assert lines[0] == "graph_id,n,edges"
    assert main(["graphs", "--n", "7", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 853
    assert main(["graphs", "--n", "9"]) == 1  # out of range -> config error


def test_dp_subcommand(tmp_path, capsys):
    cfg = {
        "network": {"nodes": 3, "edges": ["1-3:1.0", "2-3:1.0"]},
        "flows": [{"source": 1, "destinations": [3]},
                  {"source": 2, "destinations": [3]}],
        "interference": {"model": "single-transmitter", "eligibility": "path"},
        "costs": {"default": {"kind": "linear", "weight": 1.0}},
        "policies": [],
        "sim": {"horizon": 10, "seeds": [0]},
    }
    p = tmp_path / "dp.json"
    p.write_text(json.dumps(cfg))
    table = tmp_path / "table.csv"
    assert main(["dp", "--config", str(p), "--a-cap", "8",
                 "--out", str(table)]) == 0
    out = capsys.readouterr().out
    assert "gain: 3" in out
    assert table.exists()
    targets = json.loads((tmp_path / "table.csv.targets.json").read_text())
    assert targets == {"1-3": 1.5, "2-3": 1.5}
    # dp reads only the config's network: no run options
    with pytest.raises(SystemExit):
        main(["dp", "--config", str(p), "--jobs", "2"])
    # a tolerance no span can go below is a config error, not a long spin
    assert main(["dp", "--config", str(p), "--tolerance", "0"]) == 1
    assert "config error: tolerance must be positive" in capsys.readouterr().err


def test_runtime_error_exit_code(config_path):
    # unwritable output path surfaces as a runtime error, not a crash
    assert main(["run", "--config", str(config_path),
                 "--out", "/nonexistent-dir/x.csv"]) == 2


def test_star_sweep_unions_pair_columns(tmp_path):
    cfg = {
        "network": {"generator": "star", "sizes": [3, 4],
                    "reliability": "reliable"},
        "policies": [{"name": "max-weight", "label": "mw"}],
        "sim": {"horizon": 500, "seeds": [0, 1]},
    }
    p = tmp_path / "stars.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "stars.csv"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    # n=3 has pairs (1,3),(2,3); n=4 has (1,4),(2,4),(3,4): union of columns
    assert [c for c in header if c.startswith("cost_")] == \
        ["cost_1_3", "cost_1_4", "cost_2_3", "cost_2_4", "cost_3_4"]
    # 2 scenarios x (2 seeds + mean + stderr)
    assert len(lines) == 1 + 2 * 4
    # absent pairs stay blank
    first = dict(zip(header, lines[1].split(",")))
    assert first["scenario_id"] == "star-n3"
    assert first["cost_3_4"] == ""
    assert first["cost_1_3"] != ""


def test_full_trace_export(tmp_path):
    cfg = dict(TWO_HOP_CONFIG)
    cfg["sim"] = {"horizon": 50, "seeds": [0], "trace_detail": "full"}
    cfg["policies"] = [TWO_HOP_CONFIG["policies"][0]]
    p = tmp_path / "trace.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "res.csv"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    trace = tmp_path / "res.csv.trace.inline-ad-s0.csv"
    assert trace.exists()
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,pair,A,B,Q,alpha,action_index"
    assert len(lines) == 1 + 50  # one tracked destination pair
    assert lines[1].startswith("0,1-3,")


def test_export_trace_library_function(tmp_path):
    from aoisim import CostFunction, SimConfig, export_trace, make_instance, run
    inst = make_instance(2, {(1, 2): 1.0}, [(1, {2})], eligibility="path")
    costs = {(1, 2): CostFunction.linear(1.0)}
    m = run(inst, costs, SimConfig(horizon=10, seed=0, policy="constant",
                                   policy_params={"action_index": 1},
                                   targets=2.0, trace_detail="full"))
    path = tmp_path / "t.csv"
    export_trace(m, path)
    assert len(path.read_text().splitlines()) == 11
    m2 = run(inst, costs, SimConfig(horizon=10, seed=0, policy="constant",
                                    policy_params={"action_index": 1},
                                    targets=2.0))
    with pytest.raises(ValueError):
        export_trace(m2, tmp_path / "no.csv")


def test_sweep_jobs_below_one_is_a_config_error(config_path, tmp_path, capsys):
    out = tmp_path / "j0.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--jobs", "0"]) == 1
    assert "config error: jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_starts_at_most_one_worker_per_task(config_path, tmp_path, monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        """Records its worker count and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(serial)]) == 0
    assert started == []  # jobs=1 runs in this process
    # two policies x two seeds: four tasks
    assert main(["sweep", "--config", str(config_path), "--out", str(pooled),
                 "--jobs", "64"]) == 0
    assert started == [4]
    assert pooled.read_bytes() == serial.read_bytes()


def test_import_does_not_load_the_process_pool():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # nor the thread pool of split DP solves
    code = ("import sys, aoisim; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing', "
            "'concurrent.futures.thread') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout.strip() == "[]"


TWO_NODE = {
    "network": {"nodes": 2, "edges": ["1-2:1.0"]},  # three actions: idle, 1->2, 2->1
    "flows": [{"source": 1, "destinations": [2]}],
    "costs": {"default": {"kind": "linear", "weight": 1.0}},
    "sim": {"horizon": 100, "seeds": [0]},
}
TUNED = {"name": "randomized", "budget": 10, "tuning_horizon": 200}
GD = {"name": "age-debt", "target_mode": "gradient-descent", "epoch_length": 10,
      "epochs": 10, "step": 0.5, "threshold": 0.1, "initial": 5.0}


@pytest.mark.parametrize("cfg, overrides, message", [
    (dict(TWO_NODE, policies=[{"name": "randomized", "probabilities": [0.5, 0.5]}]), {},
     "policies[0] on inline: randomized policy size does not match action space"),
    (dict(TWO_NODE, policies=[{"name": "constant", "action_index": 7}]), {},
     "policies[0] on inline: constant policy needs an integer action_index below 3, got 7"),
    ({"network": {"generator": "line", "n": 4}, "policies": [TUNED, {"name": "max-weight"}],
      "sim": {"horizon": 100, "seeds": [0]}}, {},
     "policies[1] on line-n4-parity: max-weight policy needs a single-hop star instance"),
    ({"network": {"generator": "line", "n": 8}, "policies": [TUNED, {"name": "dp-table"}],
      "sim": {"horizon": 100, "seeds": [0]}}, {},
     "policies[1] on line-n8-parity: state space too large: 30^7"),
    (dict(TWO_NODE, policies=[{"name": "age-debt", "targets": {"2-1": 3.0}}]), {},
     "policies[0] on inline: targets missing pairs [(1, 2)]"),
    (dict(TWO_NODE, policies=[GD]), {"horizon": 55},
     "policies[0]: epochs * epoch_length must equal sim.horizon (10 * 10 != 55)"),
], ids=["probabilities", "action-index", "max-weight", "dp-size", "targets", "gd-horizon"])
def test_bad_entry_fails_before_any_tuning_or_solving(cfg, overrides, message, tmp_path,
                                                      capsys, monkeypatch):
    import aoisim.dp
    import aoisim.sweep

    calls = []
    monkeypatch.setattr(aoisim.sweep, "optimize_randomized", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(aoisim.dp, "dp_optimal", lambda *a, **k: calls.append(a))
    # validate checks the config as the overrides leave it
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(cfg, sim=dict(cfg["sim"], **overrides))))
    assert main(["validate", "--config", str(p)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    argv = [arg for key, value in overrides.items() for arg in (f"--{key}", str(value))]
    assert main(["sweep", "--config", str(p), "--out", str(out), *argv]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []
