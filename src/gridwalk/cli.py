"""Config-driven command line for reproducible walk, synthesis, and gate runs.

Subcommands: walk, decompose, conveyor-verify, tdse, calibrate. Every run
reads one JSON config document (versioned with a "version" field), writes its
artifacts into --out atomically (temp file + rename), and records the seed in
the report so reruns are byte-identical. Exit codes: 0 success, 2 config
error (a size too large to allocate included), 3 invariant violation, 4
numerical-tolerance failure. Each subcommand returns its report and the
bound of each value it enforces; ``main`` alone writes the report and exits
4 when a value exceeds its bound or is NaN.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

# conveyor, decompose and tdse are imported by the subcommands that run them, so that a
# walk process loads no scipy module and no solver
from . import walk
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
        # an integer beyond the float range reads as inf, so that it is named below, not an overflow
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    # JSON true and false load as bools, which are ints, but are no numbers
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"config field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    # JSON NaN, Infinity and -Infinity load as floats, but no duration, size or height is one
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config field {key!r} must be a finite number, got {config[key]!r}")
    return value


def _only(doc: dict, where: str, *known: str) -> dict:
    """The config object ``doc`` itself, after checking that it holds no key but the known ones."""
    for key in doc:
        if key not in known:
            raise ConfigError(f"{where} takes only {', '.join(map(repr, known))}, not {key!r}")
    return doc


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
        _only(init, "initial", "snapshot")
        return walk.state_from_json(_resolve(base, _get(init, "snapshot", str)).read_text())
    _only(init, "initial", "node", "coin")
    node = _get(init, "node", int, required=True)
    coin = init.get("coin")
    if type(coin) is int:
        return walk.init_localized(g.n, node, coin)
    if coin == "balanced":
        return walk.init_balanced(g, node)
    raise ConfigError("initial coin must be an integer index or 'balanced'")


# ---------------------------------------------------------------------------
# Subcommands: each writes its artifacts, prints its summary line, and returns
# its report with the bound of every report key it enforces


def cmd_walk(config: dict, base: Path, out_dir: Path, args: argparse.Namespace) -> tuple[dict, dict]:
    _only(config, "config", "version", "graph", "steps", "coin", "snapshot", "initial")
    g = _load_graph(config, base)
    steps = _get(config, "steps", int, required=True)
    if steps < 0:
        raise ConfigError("steps must be ≥ 0")
    kind = _get(config, "coin", str, default="grover")
    snapshot = _get(config, "snapshot", bool, default=False)
    plan = walk.CoinPlan.from_graph(g, steps, kind)
    s0 = _initial_state(config, base, g)
    final, dist = walk.walk_node_distribution(s0, plan)

    _atomic_write(out_dir, "distribution.txt", walk.distribution_to_text(dist))
    report = {"n": g.n, "steps": steps, "coin": kind,
              "position_mean": dist.mean(), "position_std": dist.std()}
    if snapshot:
        _atomic_write(out_dir, "state.json", walk.state_to_json(final))
    limits = {}
    if args.oracle:
        ref = walk.reference_evolve(s0, plan)
        report["oracle_max_deviation"] = float(np.max(np.abs(final.amp - ref.amp)))
        limits["oracle_max_deviation"] = ORACLE_TOL
    print(f"walk: n={g.n} steps={steps} sigma={dist.std():.6f} -> {out_dir}")
    return report, limits


def cmd_decompose(config: dict, base: Path, out_dir: Path, args: argparse.Namespace) -> tuple[dict, dict]:
    from . import decompose

    _only(config, "config", "version", "unitary")
    path = _get(config, "unitary", str, required=True)
    u = decompose.unitary_from_json(_resolve(base, path).read_text())
    seq = decompose.cs_decompose(u)
    error = float(np.max(np.abs(decompose.reconstruct(seq) - u)))
    _atomic_write(out_dir, "stages.json", decompose.sequence_to_json(seq))
    print(f"decompose: n={seq.n} stages={len(seq.stages)} error={error:.3e} -> {out_dir}")
    report = {"n": seq.n, "stage_count": len(seq.stages), "reconstruction_error": error}
    return report, {"reconstruction_error": decompose.RECONSTRUCTION_TOL}


def cmd_conveyor_verify(config: dict, base: Path, out_dir: Path, args: argparse.Namespace) -> tuple[dict, dict]:
    from . import conveyor, decompose

    _only(config, "config", "version", "n", "stages")
    n = _get(config, "n", int, required=True)
    if n < 2 or not is_power_of_two(n):
        raise ConfigError(f"n must be a power of two ≥ 2, got {n}")
    trials = _get(config, "stages", int, default=50)
    if trials < 1:
        raise ConfigError("stages must be ≥ 1")
    rng = np.random.default_rng(args.seed)
    strides = [2**e for e in range(1, n.bit_length())]
    # the state's parts, allocated before the first draw so that a size too large fails at once
    re, im = np.empty((n, n)), np.empty((n, n))
    worst = 0.0
    trace = conveyor.ProtocolTrace()
    for _ in range(trials):
        d = int(rng.choice(strides))
        stage = decompose.Stage(d, np.stack([random_unitary(2, rng) for _ in range(n // 2)]))
        amp = rng.standard_normal(out=re) + 1j * rng.standard_normal(out=im)
        amp /= np.linalg.norm(amp)
        orientation = conveyor.ROW if rng.integers(2) else conveyor.COLUMN
        line = int(rng.integers(1, n + 1))
        logical = amp[line - 1] if orientation == conveyor.ROW else amp[:, line - 1]
        cells = np.zeros(2 * n, dtype=complex)
        cells[0::2] = logical
        conveyor.run_stage(cells, stage, line)
        trace.stages.append((orientation, line, n, d))
        worst = max(worst, float(np.max(np.abs(cells[0::2] - decompose.apply_stage(logical, stage)))))
    _atomic_write(out_dir, "trace.txt", conveyor.format_trace(trace))
    print(f"conveyor-verify: n={n} trials={trials} max deviation={worst:.3e} -> {out_dir}")
    report = {"n": n, "trials": trials, "max_deviation": worst,
              "trace_actions": 5 * len(trace.stages), "trace_stages": len(trace.stages)}
    return report, {"max_deviation": ORACLE_TOL}


def _tdse_setup(config: dict, *keys: str):
    """Grid, well, timeline and step size of a gate config whose top level also holds ``keys``.

    The well's barrier_height is the timeline's default high barrier.
    """
    from . import tdse

    _only(config, "config", "version", "grid", "well", "timeline", "solver", *keys)
    gdoc = _only(_get(config, "grid", dict, required=True), "grid", "x_min", "x_max", "m")
    grid = tdse.SpatialGrid(
        _get(gdoc, "x_min", float, required=True),
        _get(gdoc, "x_max", float, required=True),
        _get(gdoc, "m", int, required=True),
    )
    wdoc = _only(_get(config, "well", dict, required=True), "well", "depth", "width", "separation",
                 "barrier_width", "barrier_height", "tilt")
    spec = tdse.DoubleWellSpec(
        well_depth=_get(wdoc, "depth", float, required=True),
        well_width=_get(wdoc, "width", float, required=True),
        well_separation=_get(wdoc, "separation", float, required=True),
        barrier_width=_get(wdoc, "barrier_width", float, required=True),
        tilt=_get(wdoc, "tilt", float, default=0.0),
    )
    barrier_height = _get(wdoc, "barrier_height", float, required=True)
    if barrier_height < 0:
        raise ConfigError(f"barrier height must be ≥ 0, got {barrier_height}")
    tdoc = _only(_get(config, "timeline", dict, required=True), "timeline",
                 "ramp_down", "hold", "ramp_up", "high", "low")
    timeline = tdse.BarrierTimeline(
        ramp_down_duration=_get(tdoc, "ramp_down", float, required=True),
        hold_duration=_get(tdoc, "hold", float, default=0.0),
        ramp_up_duration=_get(tdoc, "ramp_up", float, required=True),
        high_barrier=_get(tdoc, "high", float, default=barrier_height),
        low_barrier=_get(tdoc, "low", float, required=True),
    )
    sdoc = _only(_get(config, "solver", dict, default={}), "solver", "dt")
    return grid, spec, timeline, _get(sdoc, "dt", float, default=0.01)


def cmd_tdse(config: dict, base: Path, out_dir: Path, args: argparse.Namespace) -> tuple[dict, dict]:
    from . import tdse

    grid, spec, timeline, dt = _tdse_setup(config, "initial", "sample_stride", "snapshot")
    which = _get(config, "initial", str, default="left")
    if which not in ("left", "right"):
        raise ConfigError(f"initial state must be 'left' or 'right', got {which!r}")
    stride = _get(config, "sample_stride", int, default=10)
    snapshot = _get(config, "snapshot", bool, default=False)
    phi_left, phi_right = tdse.well_ground_states(grid, spec, timeline.high_barrier)
    psi0 = phi_left if which == "left" else phi_right
    traj = tdse.evolve_timeline(psi0, spec, timeline, dt, sample_stride=stride)
    _atomic_write(out_dir, "trajectory.txt", tdse.trajectory_to_text(traj, phi_left, phi_right))
    final = traj.states[-1]
    if snapshot:
        # the propagated norm may drift by NORM_DRIFT_TOL; a snapshot must load as a WaveFunction
        _atomic_write(out_dir, "psi_final.json", tdse.wavefunction_to_json(tdse.normalized(grid, final)))
    alpha, beta, leak = tdse.qubit_projection(final, phi_left, phi_right)
    print(f"tdse: T={timeline.total_duration:.3f} pR={abs(beta) ** 2:.6f} leakage={leak:.2e} -> {out_dir}")
    report = {"initial": which, "total_duration": timeline.total_duration,
              "final_pL": abs(alpha) ** 2, "final_pR": abs(beta) ** 2, "final_leakage": leak,
              "max_norm_drift": float(np.max(np.abs(traj.norms() - 1.0)))}
    return report, {"max_norm_drift": tdse.NORM_DRIFT_TOL}


def cmd_calibrate(config: dict, base: Path, out_dir: Path, args: argparse.Namespace) -> tuple[dict, dict]:
    from . import tdse

    grid, spec, timeline, dt = _tdse_setup(config, "target_transfer")
    target = _get(config, "target_transfer", float, required=True)
    result = tdse.calibrate_hold_time(grid, spec, timeline, target, dt)
    calibrated = replace(timeline, hold_duration=result.hold_duration)
    phi_left, phi_right = result.pulse.basis
    # the replay starts where the scan's ramp down ended and checks the hold and the ramp up
    traj = tdse.evolve_timeline(phi_left, spec, calibrated, dt, sample_stride=20,
                                ramp_down=result.pulse.ramp_down)
    _atomic_write(out_dir, "trajectory.txt", tdse.trajectory_to_text(traj, phi_left, phi_right))
    _, beta, leak = tdse.qubit_projection(traj.states[-1], phi_left, phi_right)
    achieved = abs(beta) ** 2
    print(
        f"calibrate: target={target} hold={result.hold_duration:.4f} "
        f"achieved={achieved:.4f} leakage={leak:.2e} -> {out_dir}"
    )
    report = {
        "target_transfer": target,
        "hold_duration": result.hold_duration,
        "achieved_transfer": achieved,
        "leakage": leak,
        "replay_deviation": max(abs(achieved - result.achieved_transfer), abs(leak - result.leakage)),
        "max_norm_drift": float(np.max(np.abs(traj.norms() - 1.0))),
        "period_estimate": result.pulse.period,
        "scan": [[h, t] for h, t in result.scan],
    }
    return report, {"replay_deviation": REPLAY_TOL, "max_norm_drift": tdse.NORM_DRIFT_TOL}


# ---------------------------------------------------------------------------
# Entry point

COMMANDS = {
    "walk": (cmd_walk, "evolve a coined walk on a graph and export the node distribution"),
    "decompose": (cmd_decompose, "synthesize a unitary into pairwise-rotation stages"),
    "conveyor-verify": (cmd_conveyor_verify, "randomized physical-vs-logical stage equivalence"),
    "tdse": (cmd_tdse, "propagate a barrier timeline and export the Bloch trajectory"),
    "calibrate": (cmd_calibrate, "find the hold time realizing a target transfer probability"),
}

PARSER = argparse.ArgumentParser(
    prog="gridwalk",
    description="Coined quantum walks on graphs, staged coin synthesis, "
    "conveyor verification, and barrier-controlled gate simulation.",
)
_subparsers = PARSER.add_subparsers(dest="subcommand", required=True)
for _name, (_, _help) in COMMANDS.items():
    _p = _subparsers.add_parser(_name, help=_help)
    _p.add_argument("--config", required=True, help="path to the JSON experiment config")
    _p.add_argument("--out", default="out", help="output directory (default: ./out)")
    _p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
_subparsers.choices["walk"].add_argument("--oracle", action="store_true",
                                         help="also run the transpose-translation oracle")


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    out_dir = Path(args.out)
    try:
        config, base = _load_config(args.config)
        report, limits = COMMANDS[args.subcommand][0](config, base, out_dir, args)
        stamped = {"version": CONFIG_VERSION, "subcommand": args.subcommand, "seed": args.seed, **report}
        _atomic_write(out_dir, "report.json", json.dumps(stamped, sort_keys=True, indent=2) + "\n")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except ToleranceFailure as e:
        print(f"tolerance failure: {e}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, KeyError, OSError, MemoryError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GridwalkError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    # a NaN compares false with every bound, so it fails too
    failed = [key for key, tol in limits.items() if not report[key] <= tol]
    for key in failed:
        print(f"tolerance failure: {key} = {report[key]:.3e} is not within {limits[key]:.0e}",
              file=sys.stderr)
    return EXIT_TOLERANCE if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
