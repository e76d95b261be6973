import argparse
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridwalk import cli, conveyor, decompose, tdse, walk
from gridwalk.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_TOLERANCE, REPLAY_TOL, main
from gridwalk.decompose import unitary_to_json
from gridwalk.util import random_unitary


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def k_graph_doc(n):
    return {"n": n, "edges": [[j, k] for j in range(1, n + 1) for k in range(j, n + 1)]}


def gate_config(**overrides):
    doc = {
        "version": 1,
        "grid": {"x_min": -8.0, "x_max": 8.0, "m": 128},
        "well": {"depth": 20.0, "width": 0.9, "separation": 1.7,
                 "barrier_width": 0.6, "barrier_height": 28.0},
        "timeline": {"ramp_down": 4.0, "ramp_up": 4.0, "high": 28.0, "low": 12.0},
        "solver": {"dt": 0.01},
    }
    doc.update(overrides)
    return doc


def small_gate_config(**overrides):
    return gate_config(**{"grid": {"x_min": -8.0, "x_max": 8.0, "m": 64}, "solver": {"dt": 0.1}, **overrides})


# ---------------------------------------------------------------------------
# Config handling


def test_missing_config_file(tmp_path):
    assert main(["walk", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["walk", "--config", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_wrong_version(tmp_path):
    cfg = write_config(tmp_path, {"version": 99})
    assert main(["walk", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("version", [True, 1.0])
def test_a_version_that_only_equals_one_is_a_config_error(tmp_path, version):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": version, "graph": k_graph_doc(2), "steps": 1,
                                  "initial": {"node": 1, "coin": 1}})
    assert main(["walk", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("doc", [
    {"steps": True, "initial": {"node": 1, "coin": 1}},
    {"steps": 2, "initial": {"node": True, "coin": 1}},
    {"steps": 2, "initial": {"node": 1, "coin": True}},
    {"steps": 2, "initial": {"node": 1, "coin": 1}, "graph": {"n": True, "edges": [[True, True]]}},
])
def test_walk_rejects_booleans_as_numbers(tmp_path, doc):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": 1, "graph": k_graph_doc(2), **doc})
    assert main(["walk", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "report.json").exists()


def test_tdse_rejects_a_boolean_float_field(tmp_path):
    cfg = write_config(tmp_path, gate_config(solver={"dt": True}))
    assert main(["tdse", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG


# the spectral bracket comes from the timeline and the tail tolerance is fixed
@pytest.mark.parametrize("extra", [{"e_min": -30.0}, {"e_max": 1e3}, {"tail_tolerance": 1e-12}])
def test_tdse_solver_takes_only_dt(tmp_path, capsys, extra):
    cfg = write_config(tmp_path, gate_config(solver={"dt": 0.01, **extra}))
    assert main(["tdse", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "solver takes only 'dt'" in capsys.readouterr().err


def test_a_negative_well_barrier_height_is_a_config_error(tmp_path, capsys):
    # also when the timeline sets its own high barrier, so that the default is never read
    out = tmp_path / "out"
    cfg = write_config(tmp_path, gate_config(well={**gate_config()["well"], "barrier_height": -1.0}))
    assert main(["tdse", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "barrier height must be ≥ 0, got -1.0" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# JSON's NaN and ±Infinity load as floats, and an integer beyond the float range converts to none:
# each is named a config error before any solve starts
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "int"])
@pytest.mark.parametrize("subcommand, section, key", [
    ("tdse", "timeline", "ramp_down"),
    ("tdse", "timeline", "hold"),
    ("calibrate", "timeline", "low"),
    ("tdse", "well", "depth"),
    ("tdse", "well", "width"),
    ("calibrate", "well", "tilt"),
    ("tdse", "grid", "x_max"),
    ("tdse", "solver", "dt"),
    ("calibrate", None, "target_transfer"),
])
def test_a_non_finite_config_number_is_a_config_error(tmp_path, capsys, subcommand, section, key, value):
    out = tmp_path / "out"
    doc = gate_config(target_transfer=1.0) if subcommand == "calibrate" else gate_config()
    if section is None:
        doc[key] = value
    else:
        doc[section] = {**doc[section], key: value}
    assert main([subcommand, "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_CONFIG
    assert f"config field {key!r} must be a finite number, got {value!r}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_a_misspelled_hold_is_a_config_error(tmp_path, capsys):
    timeline = {"ramp_down": 4.0, "ramp_up": 4.0, "high": 28.0, "low": 12.0, "hodl": 10.8}
    cfg = write_config(tmp_path, gate_config(timeline=timeline))
    assert main(["tdse", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "timeline takes only" in capsys.readouterr().err


WALK_DOC = {"version": 1, "graph": k_graph_doc(2), "steps": 1, "initial": {"node": 1, "coin": 1}}


# one misspelled key in each config object a subcommand reads
@pytest.mark.parametrize("subcommand, doc, key", [
    ("walk", {**WALK_DOC, "coins": "grover"}, "coins"),
    ("walk", {**WALK_DOC, "initial": {"nod": 1, "coin": 1}}, "nod"),
    ("walk", {**WALK_DOC, "initial": {"snapshots": "state.json"}}, "snapshots"),
    ("decompose", {"version": 1, "unitry": "u.json"}, "unitry"),
    ("conveyor-verify", {"version": 1, "n": 4, "stage": 5}, "stage"),
    ("tdse", gate_config(sample_strid=10), "sample_strid"),
    ("calibrate", gate_config(target_transfer=1.0, scan_point=24), "scan_point"),
    ("tdse", gate_config(grid={"xmin": -8.0, "x_max": 8.0, "m": 128}), "xmin"),
    ("calibrate", gate_config(target_transfer=1.0, well={
        "depth": 20.0, "width": 0.9, "seperation": 1.7, "barrier_width": 0.6,
        "barrier_height": 28.0}), "seperation"),
    ("tdse", gate_config(solver={"dtt": 0.01}), "dtt"),
    ("walk", {**WALK_DOC, "graph": {"n": 2, "edgse": [[1, 2]]}}, "edgse"),
    # keys that are gone: a calibration scans tdse.SCAN_POINTS holds, and the grid places the wells
    ("calibrate", gate_config(target_transfer=1.0, scan_points=24), "scan_points"),
    ("tdse", gate_config(well={**gate_config()["well"], "center": 0.0}), "center"),
])
def test_an_unknown_config_key_is_named(tmp_path, capsys, subcommand, doc, key):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, doc)
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"not {key!r}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


WALK_GRAPH_FILE = {**WALK_DOC, "graph": "graph.txt"}


# (subcommand, config, text of graph.txt or None, the fault as stderr names it)
CONFIG_FAULTS = [
    ("walk", [], None, "config must be a JSON object"),
    ("walk", {**WALK_DOC, "graph": 5}, None, "'graph' must be a path or an inline graph object"),
    ("walk", {**WALK_DOC, "initial": 1}, None, "'initial' must be an object"),
    ("walk", {**WALK_DOC, "steps": -1}, None, "steps must be ≥ 0"),
    ("tdse", small_gate_config(initial="up"), None, "initial state must be 'left' or 'right', got 'up'"),
    ("tdse", small_gate_config(sample_stride=0), None, "sample stride must be ≥ 1"),
    ("tdse", small_gate_config(grid={"x_min": -8.0, "x_max": 8.0, "m": 8}), None, "at least 16 points, got 8"),
    ("tdse", small_gate_config(grid={"x_min": 8.0, "x_max": 8.0, "m": 64}), None, "x_max must exceed x_min"),
    ("calibrate", small_gate_config(target_transfer=1.5), None, "target transfer must lie in [0, 1], got 1.5"),
    ("walk", WALK_GRAPH_FILE, "x\n1 2\n", "node count is not an integer: 'x'"),
    ("walk", WALK_GRAPH_FILE, "0\n", "node count must be positive, got 0"),
    ("walk", WALK_GRAPH_FILE, "2\n1 x\n", "non-integer node index in '1 x'"),
    ("walk", WALK_GRAPH_FILE, "{not json", "invalid JSON"),
    ("walk", {**WALK_DOC, "graph": {"edges": [[1, 2]]}}, None, "must carry an integer field 'n'"),
    ("walk", {**WALK_DOC, "graph": {"n": 2, "edges": [[1]]}}, None, "edge #1 must be a pair [j, k], got [1]"),
    ("walk", {**WALK_DOC, "graph": {"n": 2, "edges": [[1, 3]]}}, None, "edge #1 (1,3) outside node range 1..2"),
]


@pytest.mark.parametrize("subcommand, doc, graph, fault", CONFIG_FAULTS,
                         ids=[f"{sub}-{fault}" for sub, _, _, fault in CONFIG_FAULTS])
def test_a_config_fault_exits_2_names_itself_and_writes_no_report(tmp_path, capsys, subcommand, doc, graph, fault):
    if graph is not None:
        (tmp_path / "graph.txt").write_text(graph)
    out = tmp_path / "out"
    assert main([subcommand, "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and fault in err
    assert not (out / "report.json").exists()


def test_missing_required_field(tmp_path):
    cfg = write_config(tmp_path, {"version": 1, "graph": k_graph_doc(2),
                                  "initial": {"node": 1, "coin": 1}})
    assert main(["walk", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_referenced_path_must_exist(tmp_path):
    cfg = write_config(tmp_path, {"version": 1, "graph": "missing.txt", "steps": 1,
                                  "initial": {"node": 1, "coin": 1}})
    assert main(["walk", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# walk


def test_walk_zero_steps_distribution(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "version": 1, "graph": k_graph_doc(2), "steps": 0,
        "initial": {"node": 2, "coin": 1},
    })
    assert main(["walk", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "distribution.txt").read_text().strip().splitlines()
    probs = [float(r.split()[1]) for r in rows]
    assert probs == [0.0, 1.0]
    # a 0-step plan still checks its coin set: the Hadamard coin needs degree 2
    cfg = write_config(tmp_path, {
        "version": 1, "graph": k_graph_doc(3), "steps": 0, "coin": "hadamard",
        "initial": {"node": 1, "coin": 1},
    })
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "hadamard")]) == EXIT_CONFIG


def test_walk_oracle_flag(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "version": 1, "graph": k_graph_doc(4), "steps": 10,
        "initial": {"node": 1, "coin": 1},
    })
    assert main(["walk", "--config", cfg, "--out", str(out), "--oracle"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["oracle_max_deviation"] < 1e-10


def test_walk_odd_steps_oracle(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "version": 1, "graph": k_graph_doc(4), "steps": 7,
        "initial": {"node": 2, "coin": 3},
    })
    assert main(["walk", "--config", cfg, "--out", str(out), "--oracle"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["oracle_max_deviation"] < 1e-10


def test_walk_graph_from_file_and_snapshot(tmp_path):
    graph = tmp_path / "ring.txt"
    graph.write_text("8\n" + "\n".join(f"{j} {j % 8 + 1}" for j in range(1, 9)))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "version": 1, "graph": "ring.txt", "steps": 4, "coin": "hadamard",
        "initial": {"node": 4, "coin": "balanced"}, "snapshot": True,
    })
    assert main(["walk", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "state.json").exists()
    rows = (out / "distribution.txt").read_text().strip().splitlines()
    assert len(rows) == 8
    assert abs(sum(float(r.split()[1]) for r in rows) - 1) < 1e-12


def test_a_walk_on_a_node_count_too_large_to_hold_is_a_config_error(tmp_path, capsys):
    (tmp_path / "big.txt").write_text("100000000\n1 2\n")
    cfg = write_config(tmp_path, {"version": 1, "graph": "big.txt", "steps": 2, "initial": {"node": 1, "coin": 2}})
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error: a graph on 100000000 nodes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_walk_resumed_from_an_odd_step_snapshot_is_the_straight_walk(tmp_path):
    # 6 nodes of degrees 1 to 3: a snapshot in grid form after 3 steps is the transposed state
    graph = {"n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [2, 5]]}

    def run(name, steps, initial):
        cfg = write_config(tmp_path, {"version": 1, "graph": graph, "steps": steps,
                                      "initial": initial, "snapshot": True}, f"{name}.json")
        assert main(["walk", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        state = walk.state_from_json((tmp_path / name / "state.json").read_text())
        return state, np.loadtxt(tmp_path / name / "distribution.txt")[:, 1]

    straight, p_straight = run("straight", 4, {"node": 1, "coin": 2})
    first, _ = run("first", 3, {"node": 1, "coin": 2})
    resumed, p_resumed = run("resumed", 1, {"snapshot": "first/state.json"})
    assert np.max(np.abs(first.amp - first.amp.T)) > 0.1
    assert np.max(np.abs(p_resumed - p_straight)) < 1e-12
    assert np.max(np.abs(resumed.amp - straight.amp)) < 1e-12


@pytest.mark.parametrize("subcommand, doc", [
    ("walk", {"graph": k_graph_doc(2), "steps": 1, "initial": {"node": 1, "coin": 1}}),
    ("tdse", gate_config()),
])
@pytest.mark.parametrize("snapshot", ["no", 1, None])
def test_snapshot_must_be_a_json_bool(tmp_path, capsys, subcommand, doc, snapshot):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**doc, "version": 1, "snapshot": snapshot})
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "'snapshot' must be bool" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("node", [0, 9])
def test_walk_rejects_a_balanced_start_outside_the_graph(tmp_path, node):
    out = tmp_path / "out"
    ring = {"n": 4, "edges": [[j, j % 4 + 1] for j in range(1, 5)]}
    cfg = write_config(tmp_path, {
        "version": 1, "graph": ring, "steps": 2, "initial": {"node": node, "coin": "balanced"},
    })
    assert main(["walk", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "report.json").exists()


def test_walk_deterministic_reruns(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "version": 1, "graph": k_graph_doc(3), "steps": 5,
        "initial": {"node": 1, "coin": 2},
    })
    assert main(["walk", "--config", cfg, "--out", str(out)]) == EXIT_OK
    first = (out / "distribution.txt").read_bytes(), (out / "report.json").read_bytes()
    assert main(["walk", "--config", cfg, "--out", str(out)]) == EXIT_OK
    second = (out / "distribution.txt").read_bytes(), (out / "report.json").read_bytes()
    assert first == second


def test_walk_snapshot_path_must_be_a_string(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "version": 1, "graph": k_graph_doc(2), "steps": 1, "initial": {"snapshot": 5},
    })
    assert main(["walk", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "'snapshot' must be str" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_walk_corrupt_snapshot_is_invariant_violation(tmp_path):
    bad = tmp_path / "bad_state.json"
    bad.write_text(json.dumps({"version": 1, "n": 2,
                               "amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]}))
    cfg = write_config(tmp_path, {
        "version": 1, "graph": k_graph_doc(2), "steps": 1,
        "initial": {"snapshot": "bad_state.json"},
    })
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_INVARIANT


@pytest.mark.parametrize("n", [True, 2.0])
def test_walk_snapshot_node_count_must_be_an_integer(tmp_path, capsys, n):
    (tmp_path / "state.json").write_text(json.dumps({"version": 1, "n": n,
                                                     "amplitudes": [[1.0, 0.0]]}))
    cfg = write_config(tmp_path, {
        "version": 1, "graph": k_graph_doc(2), "steps": 1,
        "initial": {"snapshot": "state.json"},
    })
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "'n' must be an integer" in capsys.readouterr().err


# amplitudes that are no list, one pair short, or for a state of no nodes
@pytest.mark.parametrize("n, amplitudes", [
    (2, 5), (2, "1,0"), (2, {"re": 1}), (2, None), (2, [[1.0, 0.0]] * 3), (0, []),
])
def test_walk_snapshot_amplitudes_that_do_not_fit_are_config_errors(tmp_path, capsys, n, amplitudes):
    (tmp_path / "state.json").write_text(json.dumps({"version": 1, "n": n, "amplitudes": amplitudes}))
    cfg = write_config(tmp_path, {
        "version": 1, "graph": k_graph_doc(2), "steps": 1,
        "initial": {"snapshot": "state.json"},
    })
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


# ---------------------------------------------------------------------------
# decompose


def test_decompose_identity(tmp_path):
    upath = tmp_path / "u.json"
    upath.write_text(unitary_to_json(np.eye(4, dtype=complex)))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": 1, "unitary": "u.json"})
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["stage_count"] == 3
    assert report["reconstruction_error"] < 1e-12
    stages = json.loads((out / "stages.json").read_text())
    assert [s["d"] for s in stages["stages"]] == [2, 4, 2]


def test_decompose_random_eight(tmp_path):
    rng = np.random.default_rng(3)
    upath = tmp_path / "u.json"
    upath.write_text(unitary_to_json(random_unitary(8, rng)))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": 1, "unitary": "u.json"})
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["stage_count"] == 7
    assert report["reconstruction_error"] < 1e-10


def test_decompose_non_unitary_input(tmp_path):
    upath = tmp_path / "u.json"
    upath.write_text(unitary_to_json(np.ones((4, 4), dtype=complex)))
    cfg = write_config(tmp_path, {"version": 1, "unitary": "u.json"})
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_TOLERANCE


def test_decompose_rejects_a_one_by_one_unitary(tmp_path):
    upath = tmp_path / "u.json"
    upath.write_text(unitary_to_json(np.array([[1j]])))
    cfg = write_config(tmp_path, {"version": 1, "unitary": "u.json"})
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize("doc", [
    [1],
    {"n": "4", "entries": [[1.0, 0.0]] * 16},
    {"n": True, "entries": [[1.0, 0.0]]},
    {"n": 0, "entries": []},
    {"n": 2, "entries": [[True, 0], [0, 0], [0, 0], [1, False]]},
])
def test_decompose_rejects_a_malformed_unitary_document(tmp_path, capsys, doc):
    (tmp_path / "u.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path, {"version": 1, "unitary": "u.json"})
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error: unitary" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_decompose_nan_reconstruction_error_is_a_tolerance_failure(tmp_path, capsys, monkeypatch):
    (tmp_path / "u.json").write_text(unitary_to_json(np.eye(4, dtype=complex)))
    monkeypatch.setattr(decompose, "reconstruct", lambda seq: np.full((seq.n, seq.n), np.nan))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": 1, "unitary": "u.json"})
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == EXIT_TOLERANCE
    assert "reconstruction_error" in capsys.readouterr().err
    assert np.isnan(json.loads((out / "report.json").read_text())["reconstruction_error"])


# ---------------------------------------------------------------------------
# conveyor-verify


def test_conveyor_verify_passes_and_repeats(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": 1, "n": 8, "stages": 20})
    assert main(["conveyor-verify", "--config", cfg, "--out", str(out), "--seed", "11"]) == EXIT_OK
    first = (out / "report.json").read_bytes()
    report = json.loads(first)
    assert report["max_deviation"] < 1e-10
    assert report["trace_actions"] == report["trace_stages"] * 5
    assert main(["conveyor-verify", "--config", cfg, "--out", str(out), "--seed", "11"]) == EXIT_OK
    assert (out / "report.json").read_bytes() == first


@pytest.mark.parametrize("stages", [0, -3])
def test_conveyor_verify_rejects_fewer_than_one_stage(tmp_path, stages):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": 1, "n": 8, "stages": stages})
    assert main(["conveyor-verify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "report.json").exists() and not (out / "trace.txt").exists()


@pytest.mark.parametrize("n", [1, 3, 6])
def test_conveyor_verify_rejects_a_size_that_is_no_power_of_two(tmp_path, capsys, n):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": 1, "n": n, "stages": 2})
    assert main(["conveyor-verify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"n must be a power of two ≥ 2, got {n}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_conveyor_verify_fails_before_its_first_draw_on_a_size_it_cannot_hold(tmp_path, capsys, monkeypatch):
    # n = 2²⁰: the n×n state would take 8 TiB per part, so its allocation fails at once,
    # before the n/2 rotations of the first stage are drawn
    draws = []
    monkeypatch.setattr(cli, "random_unitary", lambda *args: draws.append(args) or random_unitary(*args))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": 1, "n": 2**20, "stages": 1})
    start = time.perf_counter()
    assert main(["conveyor-verify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert draws == []
    assert "config error: Unable to allocate" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_conveyor_verify_writes_its_trace(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"version": 1, "n": 8, "stages": 6})
    assert main(["conveyor-verify", "--config", cfg, "--out", str(out), "--seed", "3"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    lines = (out / "trace.txt").read_text().splitlines()
    assert len(lines) == report["trace_actions"] == 30
    assert [line.split()[1] for line in lines[:5]] == ["1", "2", "3", "4", "5"]
    assert lines[0].startswith("STEP 1 ACTION=pi_transfer line=")
    first = (out / "trace.txt").read_bytes()
    assert main(["conveyor-verify", "--config", cfg, "--out", str(out), "--seed", "3"]) == EXIT_OK
    assert (out / "trace.txt").read_bytes() == first


def test_conveyor_verify_seed_changes_report(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, {"version": 1, "n": 4, "stages": 5})
    assert main(["conveyor-verify", "--config", cfg, "--out", str(out_a), "--seed", "1"]) == EXIT_OK
    assert main(["conveyor-verify", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == EXIT_OK
    a = json.loads((out_a / "report.json").read_text())
    b = json.loads((out_b / "report.json").read_text())
    assert a["seed"] != b["seed"]


def test_conveyor_verify_draws_strides_up_to_n(tmp_path, monkeypatch):
    strides = []
    run_stage = conveyor.run_stage
    monkeypatch.setattr(conveyor, "run_stage",
                        lambda g, stage, *rest: strides.append(stage.d) or run_stage(g, stage, *rest))
    cfg = write_config(tmp_path, {"version": 1, "n": 128, "stages": 20})
    assert main(["conveyor-verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert 128 in strides and set(strides) <= {2, 4, 8, 16, 32, 64, 128}


# ---------------------------------------------------------------------------
# tdse / calibrate


def test_tdse_writes_trajectory(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, gate_config(
        version=1,
        timeline={"ramp_down": 4.0, "ramp_up": 4.0, "high": 28.0, "low": 12.0, "hold": 2.0},
        initial="left",
        sample_stride=50,
        snapshot=True,
    ))
    assert main(["tdse", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = [r.split() for r in (out / "trajectory.txt").read_text().strip().splitlines()
            if not r.startswith("#")]
    assert all(len(r) == 6 for r in rows)
    report = json.loads((out / "report.json").read_text())
    assert report["max_norm_drift"] < 1e-10
    assert abs(report["final_pL"] + report["final_pR"] + report["final_leakage"] - 1) < 1e-9
    snap = json.loads((out / "psi_final.json").read_text())
    assert snap["m"] == 128 and len(snap["psi"]) == 128


def test_tdse_norm_drift_beyond_bound_exits_with_tolerance_code(tmp_path, monkeypatch):
    evolve_timeline = tdse.evolve_timeline

    def leaky(*args, **kwargs):
        traj = evolve_timeline(*args, **kwargs)
        states = traj.states.copy()
        states[-1] *= np.sqrt(1 - 1e-7)
        return tdse.Trajectory(traj.grid, traj.times, states)

    monkeypatch.setattr(tdse, "evolve_timeline", leaky)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, gate_config(
        version=1, grid={"x_min": -8.0, "x_max": 8.0, "m": 64}, solver={"dt": 0.1},
        timeline={"ramp_down": 4.0, "ramp_up": 4.0, "high": 28.0, "low": 12.0, "hold": 1.0}))
    assert main(["tdse", "--config", cfg, "--out", str(out)]) == EXIT_TOLERANCE
    report = json.loads((out / "report.json").read_text())
    assert report["max_norm_drift"] == pytest.approx(1e-7, rel=1e-3)


def test_tdse_snapshot_of_a_drifted_state_loads_back(tmp_path, monkeypatch):
    evolve_timeline = tdse.evolve_timeline

    def drifted(*args, **kwargs):
        traj = evolve_timeline(*args, **kwargs)
        states = traj.states.copy()
        states[-1] *= np.sqrt(1 + 5e-12)
        return tdse.Trajectory(traj.grid, traj.times, states)

    monkeypatch.setattr(tdse, "evolve_timeline", drifted)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, gate_config(
        version=1, grid={"x_min": -8.0, "x_max": 8.0, "m": 64}, solver={"dt": 0.1}, snapshot=True,
        timeline={"ramp_down": 4.0, "ramp_up": 4.0, "high": 28.0, "low": 12.0, "hold": 1.0}))
    assert main(["tdse", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["max_norm_drift"] > tdse.NORM_TOL
    snap = tdse.wavefunction_from_json((out / "psi_final.json").read_text())
    assert abs(snap.norm_squared() - 1) <= tdse.NORM_TOL


def test_calibrate_half_split(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, gate_config(version=1, target_transfer=0.5))
    assert main(["calibrate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert abs(report["achieved_transfer"] - 0.5) <= 0.01
    assert report["leakage"] <= 0.01
    assert (out / "trajectory.txt").exists()


def test_calibrate_unreachable_exit_code(tmp_path):
    doc = gate_config(version=1, target_transfer=1.0)
    doc["well"]["tilt"] = 0.5
    cfg = write_config(tmp_path, doc)
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_TOLERANCE


@pytest.mark.parametrize("subcommand,name", [("tdse", "tdse_pi"), ("calibrate", "calibrate_pi")])
def test_a_grid_too_large_to_allocate_is_a_config_error(tmp_path, capsys, subcommand, name):
    # the shipped config at m = 10⁶: the dense kinetic matrix alone would take 7.28 TiB,
    # so its allocation fails at once
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / f"{name}.json").read_text())
    doc["grid"]["m"] = 10**6
    out = tmp_path / "out"
    assert main([subcommand, "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: Unable to allocate" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("target", [1.0, 0.5])
def test_calibrate_replays_the_pulse_once_and_reports_its_final_row(tmp_path, monkeypatch, target):
    calls = []
    evolve_timeline = tdse.evolve_timeline

    def counted(*args, **kwargs):
        calls.append(kwargs.get("sample_stride"))
        return evolve_timeline(*args, **kwargs)

    monkeypatch.setattr(tdse, "evolve_timeline", counted)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_gate_config(target_transfer=target))
    assert main(["calibrate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert calls == [20]
    report = json.loads((out / "report.json").read_text())
    last = np.loadtxt(out / "trajectory.txt")[-1]
    assert last[0] == pytest.approx(8.0 + report["hold_duration"], rel=1e-9)
    assert abs(last[2] - report["achieved_transfer"]) <= 1e-9
    assert abs(last[4] - report["leakage"]) <= 1e-9
    assert report["replay_deviation"] <= REPLAY_TOL


def test_calibrate_exits_with_tolerance_code_when_the_replay_disagrees(tmp_path, monkeypatch, capsys):
    # the pulse's closed-form leakage is read by the report alone, not by the solve
    leakage = tdse.HoldScan.leakage
    monkeypatch.setattr(tdse.HoldScan, "leakage", lambda self, holds: leakage(self, holds) + 10 * REPLAY_TOL)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_gate_config(target_transfer=0.5))
    assert main(["calibrate", "--config", cfg, "--out", str(out)]) == EXIT_TOLERANCE
    assert "tolerance failure: replay_deviation = " in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["replay_deviation"] == pytest.approx(10 * REPLAY_TOL, rel=1e-3)


def test_calibrate_exits_with_tolerance_code_when_the_replay_drifts(tmp_path, monkeypatch):
    # a middle sample: the final row, which the replay deviation reads, stays as it was
    evolve_timeline = tdse.evolve_timeline

    def leaky(*args, **kwargs):
        traj = evolve_timeline(*args, **kwargs)
        states = traj.states.copy()
        states[len(states) // 2] *= np.sqrt(1 - 1e-7)
        return tdse.Trajectory(traj.grid, traj.times, states)

    monkeypatch.setattr(tdse, "evolve_timeline", leaky)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_gate_config(target_transfer=0.5))
    assert main(["calibrate", "--config", cfg, "--out", str(out)]) == EXIT_TOLERANCE
    report = json.loads((out / "report.json").read_text())
    assert report["max_norm_drift"] == pytest.approx(1e-7, rel=1e-3)
    assert report["replay_deviation"] <= REPLAY_TOL


def test_calibrate_steps_each_ramp_once_and_replays_once(tmp_path, monkeypatch):
    # HoldScan carries L and R forward through the ramp down as one 2-row block, and the
    # conjugate of that block is the ramp up run backwards; the replay starts where the ramp
    # down ended, builds the hold's propagator (the step of the identity) and steps the ramp
    # up forward. No step runs backwards
    calls = []
    chebyshev_step = tdse.chebyshev_step

    def counted(grid, rows, v, params):
        calls.append((params.dt, len(rows)))
        return chebyshev_step(grid, rows, v, params)

    monkeypatch.setattr(tdse, "chebyshev_step", counted)
    out = tmp_path / "out"
    doc = small_gate_config(target_transfer=1.0)
    cfg = write_config(tmp_path, doc)
    assert main(["calibrate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    hold = json.loads((out / "report.json").read_text())["hold_duration"]
    template = tdse.BarrierTimeline(4.0, 0.0, 4.0, 28.0, 12.0)
    (_, down), _, _ = tdse.timeline_steps(template, doc["solver"]["dt"])
    _, (_, replay_hold), (_, replay_up) = tdse.timeline_steps(
        replace(template, hold_duration=hold), doc["solver"]["dt"])
    m = doc["grid"]["m"]
    assert tdse._holds_by_propagator(m, len(replay_hold), 1)
    assert calls == ([(dt, 2) for _, dt in down] + [(replay_hold[0][1], m)]
                     + [(dt, 1) for _, dt in replay_up])
    assert all(dt > 0 for dt, _ in calls)


def test_calibrate_computes_the_qubit_basis_once(tmp_path, monkeypatch):
    # HoldScan's basis is the one the replay projects on: one eigensolve of the high barrier
    bases = []
    well_ground_states = tdse.well_ground_states

    def counted(*args, **kwargs):
        bases.append(well_ground_states(*args, **kwargs))
        return bases[-1]

    monkeypatch.setattr(tdse, "well_ground_states", counted)
    doc = small_gate_config(target_transfer=0.5)
    assert main(["calibrate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(bases) == 1
    grid = tdse.SpatialGrid(-8.0, 8.0, doc["grid"]["m"])
    spec = tdse.DoubleWellSpec(well_depth=20.0, well_width=0.9, well_separation=1.7, barrier_width=0.6)
    assert bases[0] == well_ground_states(grid, spec, 28.0)


def test_calibrate_reruns_in_one_process_are_byte_identical(tmp_path):
    # the first run fills the per-step-length Bessel cache, the second reads it
    tdse.chebyshev_coefficients.cache_clear()
    cfg = write_config(tmp_path, small_gate_config(target_transfer=1.0))
    for run in ("cold", "warm"):
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / run)]) == EXIT_OK
    assert tdse.chebyshev_coefficients.cache_info().hits > 0
    for name in ("report.json", "trajectory.txt"):
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


@pytest.mark.parametrize("subcommand", ["decompose", "conveyor-verify", "tdse", "calibrate"])
def test_oracle_flag_is_a_usage_error_outside_walk(tmp_path, subcommand, capsys):
    cfg = write_config(tmp_path, small_gate_config(target_transfer=0.5))
    with pytest.raises(SystemExit) as exit_info:
        main([subcommand, "--config", cfg, "--out", str(tmp_path / "out"), "--oracle"])
    assert exit_info.value.code == EXIT_CONFIG
    assert "--oracle" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch):
    (tmp_path / "u.json").write_text(unitary_to_json(np.eye(2, dtype=complex)))
    configs = {
        "walk": {"version": 1, "graph": k_graph_doc(2), "steps": 1, "initial": {"node": 1, "coin": 1}},
        "decompose": {"version": 1, "unitary": "u.json"},
        "conveyor-verify": {"version": 1, "n": 2, "stages": 1},
    }
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for subcommand, doc in configs.items():
        cfg = write_config(tmp_path, doc, f"{subcommand}.json")
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / subcommand)]) == EXIT_OK
    assert built == []
