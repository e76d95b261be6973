"""Config-driven command line for reproducible walk, synthesis, and gate runs.

Subcommands: walk, decompose, conveyor-verify, tdse, calibrate. Every run
reads one JSON config document (versioned with a "version" field), writes its
artifacts into --out atomically (temp file + rename), and records the seed in
the report so reruns are byte-identical. Exit codes: 0 success, 2 config
error, 3 invariant violation, 4 numerical-tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import conveyor, decompose, tdse, walk
from .errors import ConfigError, GridwalkError, InvariantViolation, ToleranceFailure
from .graph import Graph, parse_graph
from .util import is_power_of_two, random_unitary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_TOLERANCE = 4

ORACLE_TOL = 1e-10
# closed-form calibration against the replayed pulse, in transfer and leakage
REPLAY_TOL = 1e-9
CONFIG_VERSION = 1


def _atomic_write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    tmp = out_dir / f".{name}.tmp"
    tmp.write_text(text)
    os.replace(tmp, target)
    return target


def _write_report(out_dir: Path, payload: dict) -> Path:
    return _atomic_write(out_dir, "report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_config(path: str) -> tuple[dict, Path]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if _get(doc, "version", int) != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}, got {doc.get('version')!r}")
    return doc, p.parent


def _get(config: dict, key: str, kind, default=None, required: bool = False):
    if key not in config:
        if required:
            raise ConfigError(f"config field {key!r} is required")
        return default
    value = config[key]
    if kind is float and type(value) is int:
        value = float(value)
    # JSON true and false load as bools, which are ints, but are no numbers
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"config field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _resolve(base: Path, path: str) -> Path:
    p = Path(path)
    resolved = p if p.is_absolute() else base / p
    if not resolved.is_file():
        raise ConfigError(f"referenced file not found: {resolved}")
    return resolved


def _load_graph(config: dict, base: Path) -> Graph:
    source = config.get("graph")
    if isinstance(source, str):
        return parse_graph(_resolve(base, source).read_text())
    if isinstance(source, dict):
        return parse_graph(json.dumps(source))
    raise ConfigError("config field 'graph' must be a path or an inline graph object")


def _initial_state(config: dict, base: Path, g: Graph) -> walk.WalkState:
    init = config.get("initial")
    if not isinstance(init, dict):
        raise ConfigError("config field 'initial' must be an object")
    if "snapshot" in init:
        return walk.state_from_json(_resolve(base, _get(init, "snapshot", str)).read_text())
    node = _get(init, "node", int, required=True)
    coin = init.get("coin")
    if type(coin) is int:
        return walk.init_localized(g.n, node, coin)
    if coin == "balanced":
        return walk.init_balanced(g, node)
    raise ConfigError("initial coin must be an integer index or 'balanced'")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_walk(config: dict, base: Path, out_dir: Path, seed: int, oracle: bool) -> int:
    g = _load_graph(config, base)
    steps = _get(config, "steps", int, required=True)
    if steps < 0:
        raise ConfigError("steps must be ≥ 0")
    kind = _get(config, "coin", str, default="grover")
    plan = walk.CoinPlan.from_graph(g, steps, kind)
    s0 = _initial_state(config, base, g)
    final, dist = walk.walk_node_distribution(s0, steps, plan)

    _atomic_write(out_dir, "distribution.txt", walk.distribution_to_text(dist))
    report = {
        "version": CONFIG_VERSION,
        "subcommand": "walk",
        "seed": seed,
        "n": g.n,
        "steps": steps,
        "coin": kind,
        "position_mean": dist.mean(),
        "position_std": dist.std(),
    }
    if config.get("snapshot"):
        _atomic_write(out_dir, "state.json", walk.state_to_json(final))
    code = EXIT_OK
    if oracle:
        ref = walk.reference_evolve(s0, steps, plan)
        readout = walk.transpose_state(final) if steps % 2 == 1 else final
        deviation = float(np.max(np.abs(readout.amp - ref.amp)))
        report["oracle_max_deviation"] = deviation
        if deviation > ORACLE_TOL:
            print(f"oracle deviation {deviation:.3e} exceeds {ORACLE_TOL:.0e}", file=sys.stderr)
            code = EXIT_TOLERANCE
    _write_report(out_dir, report)
    print(f"walk: n={g.n} steps={steps} sigma={dist.std():.6f} -> {out_dir}")
    return code


def cmd_decompose(config: dict, base: Path, out_dir: Path, seed: int) -> int:
    path = _get(config, "unitary", str, required=True)
    u = decompose.unitary_from_json(_resolve(base, path).read_text())
    seq = decompose.cs_decompose(u)
    error = float(np.max(np.abs(decompose.reconstruct(seq) - u)))
    _atomic_write(out_dir, "stages.json", decompose.sequence_to_json(seq))
    _write_report(out_dir, {
        "version": CONFIG_VERSION,
        "subcommand": "decompose",
        "seed": seed,
        "n": seq.n,
        "stage_count": len(seq.stages),
        "reconstruction_error": error,
    })
    print(f"decompose: n={seq.n} stages={len(seq.stages)} error={error:.3e} -> {out_dir}")
    if error > decompose.RECONSTRUCTION_TOL:
        print(f"reconstruction error exceeds {decompose.RECONSTRUCTION_TOL:.0e}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_conveyor_verify(config: dict, base: Path, out_dir: Path, seed: int) -> int:
    n = _get(config, "n", int, required=True)
    if n < 2 or not is_power_of_two(n):
        raise ConfigError(f"n must be a power of two ≥ 2, got {n}")
    trials = _get(config, "stages", int, default=50)
    if trials < 1:
        raise ConfigError("stages must be ≥ 1")
    rng = np.random.default_rng(seed)
    strides = [2**e for e in range(1, n.bit_length())]
    worst = 0.0
    trace = conveyor.ProtocolTrace()
    for _ in range(trials):
        d = int(rng.choice(strides))
        stage = decompose.Stage(d, np.stack([random_unitary(2, rng) for _ in range(n // 2)]))
        amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        amp /= np.linalg.norm(amp)
        state = walk.WalkState(n, amp)
        orientation = conveyor.ROW if rng.integers(2) else conveyor.COLUMN
        line = int(rng.integers(1, n + 1))
        amp = conveyor.embed(state)
        cells = conveyor.data_lines(amp, orientation)[line - 1]
        conveyor.run_stage(cells, stage, orientation, line, trace)
        physical = conveyor.extract(amp)
        expected = state.amp.copy()
        lines = expected if orientation == conveyor.ROW else expected.T
        lines[line - 1] = decompose.apply_stage(lines[line - 1], stage)
        worst = max(worst, float(np.max(np.abs(physical.amp - expected))))
    _atomic_write(out_dir, "trace.txt", conveyor.format_trace(trace))
    _write_report(out_dir, {
        "version": CONFIG_VERSION,
        "subcommand": "conveyor-verify",
        "seed": seed,
        "n": n,
        "trials": trials,
        "max_deviation": worst,
        "trace_actions": 5 * len(trace.stages),
        "trace_stages": len(trace.stages),
    })
    print(f"conveyor-verify: n={n} trials={trials} max deviation={worst:.3e} -> {out_dir}")
    if worst > ORACLE_TOL:
        print(f"physical/logical deviation exceeds {ORACLE_TOL:.0e}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _tdse_setup(config: dict):
    gdoc = _get(config, "grid", dict, required=True)
    grid = tdse.SpatialGrid(
        _get(gdoc, "x_min", float, required=True),
        _get(gdoc, "x_max", float, required=True),
        _get(gdoc, "m", int, required=True),
    )
    wdoc = _get(config, "well", dict, required=True)
    spec = tdse.DoubleWellSpec(
        well_depth=_get(wdoc, "depth", float, required=True),
        well_width=_get(wdoc, "width", float, required=True),
        well_separation=_get(wdoc, "separation", float, required=True),
        barrier_width=_get(wdoc, "barrier_width", float, required=True),
        barrier_height=_get(wdoc, "barrier_height", float, required=True),
        center=_get(wdoc, "center", float, default=0.0),
        tilt=_get(wdoc, "tilt", float, default=0.0),
    )
    tdoc = _get(config, "timeline", dict, required=True)
    timeline = tdse.BarrierTimeline(
        ramp_down_duration=_get(tdoc, "ramp_down", float, required=True),
        hold_duration=_get(tdoc, "hold", float, default=0.0),
        ramp_up_duration=_get(tdoc, "ramp_up", float, required=True),
        high_barrier=_get(tdoc, "high", float, default=spec.barrier_height),
        low_barrier=_get(tdoc, "low", float, required=True),
    )
    sdoc = _get(config, "solver", dict, default={})
    e_min, e_max = tdse.timeline_energy_bounds(grid, spec, timeline)
    params = tdse.ChebyshevParams(
        dt=_get(sdoc, "dt", float, default=0.01),
        e_min=_get(sdoc, "e_min", float, default=e_min),
        e_max=_get(sdoc, "e_max", float, default=e_max),
        tail_tolerance=_get(sdoc, "tail_tolerance", float, default=1e-14),
    )
    return grid, spec, timeline, params


def cmd_tdse(config: dict, base: Path, out_dir: Path, seed: int) -> int:
    grid, spec, timeline, params = _tdse_setup(config)
    phi_left, phi_right = tdse.well_ground_states(grid, spec, timeline.high_barrier)
    which = _get(config, "initial", str, default="left")
    if which not in ("left", "right"):
        raise ConfigError(f"initial state must be 'left' or 'right', got {which!r}")
    psi0 = phi_left if which == "left" else phi_right
    stride = _get(config, "sample_stride", int, default=10)
    traj = tdse.evolve_timeline(psi0, grid, spec, timeline, params, sample_stride=stride)
    _atomic_write(out_dir, "trajectory.txt", tdse.trajectory_to_text(traj, phi_left, phi_right))
    final = traj.final()
    if config.get("snapshot"):
        _atomic_write(out_dir, "psi_final.json", tdse.wavefunction_to_json(final))
    alpha, beta, leak = tdse.qubit_projection(final, phi_left, phi_right)
    drift = float(np.max(np.abs(traj.norms() - 1.0)))
    _write_report(out_dir, {
        "version": CONFIG_VERSION,
        "subcommand": "tdse",
        "seed": seed,
        "initial": which,
        "total_duration": timeline.total_duration,
        "final_pL": abs(alpha) ** 2,
        "final_pR": abs(beta) ** 2,
        "final_leakage": leak,
        "max_norm_drift": drift,
    })
    print(f"tdse: T={timeline.total_duration:.3f} pR={abs(beta) ** 2:.6f} leakage={leak:.2e} -> {out_dir}")
    if drift > tdse.NORM_DRIFT_TOL:
        print(f"norm drift {drift:.3e} exceeds {tdse.NORM_DRIFT_TOL:.0e}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_calibrate(config: dict, base: Path, out_dir: Path, seed: int) -> int:
    grid, spec, timeline, params = _tdse_setup(config)
    target = _get(config, "target_transfer", float, required=True)
    scan_points = _get(config, "scan_points", int, default=24)
    result = tdse.calibrate_hold_time(
        grid, spec, timeline, target, params=params, scan_points=scan_points
    )
    calibrated = replace(timeline, hold_duration=result.hold_duration)
    phi_left, phi_right = tdse.well_ground_states(grid, spec, timeline.high_barrier)
    traj = tdse.evolve_timeline(phi_left, grid, spec, calibrated, params, sample_stride=20)
    _atomic_write(out_dir, "trajectory.txt", tdse.trajectory_to_text(traj, phi_left, phi_right))
    _, beta, leak = tdse.qubit_projection(traj.states[-1], phi_left, phi_right)
    achieved = abs(beta) ** 2
    deviation = max(abs(achieved - result.achieved_transfer), abs(leak - result.leakage))
    drift = float(np.max(np.abs(traj.norms() - 1.0)))
    _write_report(out_dir, {
        "version": CONFIG_VERSION,
        "subcommand": "calibrate",
        "seed": seed,
        "target_transfer": target,
        "hold_duration": result.hold_duration,
        "achieved_transfer": achieved,
        "leakage": leak,
        "replay_deviation": deviation,
        "max_norm_drift": drift,
        "period_estimate": result.period_estimate,
        "scan": [[h, t] for h, t in result.scan],
    })
    print(
        f"calibrate: target={target} hold={result.hold_duration:.4f} "
        f"achieved={achieved:.4f} leakage={leak:.2e} -> {out_dir}"
    )
    if deviation > REPLAY_TOL:
        print(f"replay deviates from the closed form by {deviation:.3e}, beyond {REPLAY_TOL:.0e}",
              file=sys.stderr)
        return EXIT_TOLERANCE
    if drift > tdse.NORM_DRIFT_TOL:
        print(f"replay norm drift {drift:.3e} exceeds {tdse.NORM_DRIFT_TOL:.0e}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridwalk",
        description="Coined quantum walks on graphs, staged coin synthesis, "
        "conveyor verification, and barrier-controlled gate simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("walk", "evolve a coined walk on a graph and export the node distribution"),
        ("decompose", "synthesize a unitary into pairwise-rotation stages"),
        ("conveyor-verify", "randomized physical-vs-logical stage equivalence"),
        ("tdse", "propagate a barrier timeline and export the Bloch trajectory"),
        ("calibrate", "find the hold time realizing a target transfer probability"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        if name == "walk":
            p.add_argument("--oracle", action="store_true",
                           help="also run the transpose-translation oracle")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        config, base = _load_config(args.config)
        if args.subcommand == "walk":
            return cmd_walk(config, base, out_dir, args.seed, args.oracle)
        if args.subcommand == "decompose":
            return cmd_decompose(config, base, out_dir, args.seed)
        if args.subcommand == "conveyor-verify":
            return cmd_conveyor_verify(config, base, out_dir, args.seed)
        if args.subcommand == "tdse":
            return cmd_tdse(config, base, out_dir, args.seed)
        if args.subcommand == "calibrate":
            return cmd_calibrate(config, base, out_dir, args.seed)
        raise ConfigError(f"unknown subcommand {args.subcommand!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except ToleranceFailure as e:
        print(f"tolerance failure: {e}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, KeyError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GridwalkError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
