"""Seeded inputs, jobs and output checks for the four benchmark workloads.

A job is one call into gridwalk's public entry points: ``gridwalk.cli.main``
for the ``walk`` and ``calibrate`` subcommands, ``run_walk_physical`` for the
physical walk, which no subcommand runs. Each job's ``check`` compares the
output with the independent computations in ``reference`` and returns None
or the reason the output is wrong; ``run`` raises JobFailed when a subcommand
exits with another code than 0. Expected values are computed once per input
on the first check and cached, so the checks stay cheap however many rounds
a run makes.

Module-level attribute lookups (``cli.main``, ``conveyor.run_walk_physical``)
happen at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from gridwalk import cli, conveyor, graph, walk

import reference

WALK_TOL = 1e-10

# Walk workloads: one size class, n = 256 nodes and 40 steps for every job.
# At this size the dense n×n per-node coins dominate plan construction,
# memory and the O(n³) coin applications.
WALK_N = 256
WALK_STEPS = 40
SPARSE_RANDOM_GRAPHS = 2
DENSE_REMOVED_EDGES = (3, 9)  # drawn from [3, 9): "a few" edges removed

# Physical workload: 32-node graphs, 2 steps, degrees from 2 to about n/2 so
# that low- and high-degree coins both reach cs_decompose. No node is
# isolated: an isolated node's identity coin skips most of the factorization,
# and a varying count of them would make job cost depend on the seed.
PHYSICAL_N = 32
PHYSICAL_STEPS = 2
PHYSICAL_GRAPHS = 2

# Gate workload: the shipped double-well geometry on a 64-point grid with
# steps of 0.1. At low barriers 11.5 and 12.0 this gives the same holds (to
# 1e-3) and replay counts as m=128, dt=0.01, at an eighth of the cost, so a
# run holds a dozen calibrations. Low barriers come from a 0.05 grid over [11.25, 12.8]:
# each one reaches both targets, and every π calibration there takes the
# scan-then-bisect path with 11 timeline replays. Around it (11.1-11.2,
# 12.85-12.9) some π calibrations take the extremum refinement with 17-18
# replays instead, a second size class.
GATE_VARIANTS = 3
GATE_LOW_BARRIERS = tuple(round(11.25 + 0.05 * i, 2) for i in range(32))
GATE_TARGETS = (1.0, 0.5)
GATE_GRID = {"x_min": -8.0, "x_max": 8.0, "m": 64}
GATE_WELL = {"depth": 20.0, "width": 0.9, "separation": 1.7, "barrier_width": 0.6,
             "barrier_height": 28.0}
GATE_RAMP = 4.0
GATE_DT = 0.1
GATE_LEAKAGE_MAX = 0.01
GATE_NORM_TOL = 1e-8
GATE_PERIOD_RTOL = 1e-8
# trajectory.txt carries 11 significant digits
GATE_ROW_TOL = 1e-9

class JobFailed(RuntimeError):
    pass


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"gridwalk {argv[0]} exited with code {code}")


def workload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(name), seed])


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def write_edge_list(path: Path, n: int, edges) -> Path:
    path.write_text(f"{n}\n" + "".join(f"{j} {k}\n" for j, k in sorted(edges)))
    return path


# ---------------------------------------------------------------------------
# Walk jobs


@dataclass
class WalkJob:
    """``gridwalk walk`` on one generated config; checked against the oracle walk."""

    config: Path
    out: Path
    present: np.ndarray
    kind: str
    initial: dict
    steps: int
    _expected: np.ndarray | None = field(default=None, repr=False)

    def run(self) -> None:
        run_cli(["walk", "--config", str(self.config), "--out", str(self.out)])

    def expected(self) -> np.ndarray:
        if self._expected is None:
            n = len(self.present)
            node = self.initial["node"]
            if self.kind == "hadamard":
                self._expected = reference.ring_walk_distribution(n, node, self.steps)
            else:
                amp0 = np.zeros((n, n), dtype=complex)
                amp0[node - 1, self.initial["coin"] - 1] = 1.0
                x = reference.coin_then_transpose(self.present, self.kind, amp0, self.steps)
                self._expected = np.sum(np.abs(x) ** 2, axis=1)
        return self._expected

    def check(self, _outcome=None) -> str | None:
        return check_distribution((self.out / "distribution.txt").read_text(), self.expected())


def check_distribution(text: str, expected: np.ndarray) -> str | None:
    rows = [line.split() for line in text.splitlines()]
    if [int(r[0]) for r in rows] != list(range(1, len(expected) + 1)):
        return f"distribution does not list nodes 1..{len(expected)}"
    p = np.array([float(r[1]) for r in rows])
    deviation = float(np.max(np.abs(p - expected)))
    if deviation > WALK_TOL:
        return f"distribution deviates from the oracle walk by {deviation:.3e}"
    return None


def _walk_job(root: Path, label: str, n: int, edges, kind: str, initial: dict) -> WalkJob:
    write_edge_list(root / f"{label}.txt", n, edges)
    config = write_json(root / f"{label}.json", {
        "version": 1, "graph": f"{label}.txt", "coin": kind, "initial": initial,
        "steps": WALK_STEPS,
    })
    return WalkJob(config, root / "out" / label, reference.adjacency(n, edges), kind,
                   initial, WALK_STEPS)


def _random_edge_start(rng: np.random.Generator, edges) -> dict:
    j, k = sorted(edges)[int(rng.integers(len(edges)))]
    return {"node": j, "coin": k}


def sparse_edges(rng: np.random.Generator, n: int) -> set[tuple[int, int]]:
    """A random Hamiltonian path plus n/2 random edges: degrees 1 to about 6, some loops."""
    order = rng.permutation(n) + 1
    edges = {tuple(sorted((int(a), int(b)))) for a, b in zip(order[:-1], order[1:])}
    for a, b in rng.integers(1, n + 1, size=(n // 2, 2)):
        edges.add(tuple(sorted((int(a), int(b)))))
    return edges


def generate_walk_sparse(seed: int, root: Path) -> list[WalkJob]:
    """A Hadamard ring from a balanced start, then random low-degree graphs with Grover coins."""
    rng = workload_rng("walk_sparse", seed)
    n = WALK_N
    ring = {tuple(sorted((j, j % n + 1))) for j in range(1, n + 1)}
    jobs = [_walk_job(root, "ring", n, ring, "hadamard",
                      {"node": int(rng.integers(1, n + 1)), "coin": "balanced"})]
    for i in range(SPARSE_RANDOM_GRAPHS):
        edges = sparse_edges(rng, n)
        jobs.append(_walk_job(root, f"sparse{i}", n, edges, "grover",
                              _random_edge_start(rng, edges)))
    return jobs


def generate_walk_dense(seed: int, root: Path) -> list[WalkJob]:
    """Complete graphs with self-loops minus a few random edges, one Grover, one DFT."""
    rng = workload_rng("walk_dense", seed)
    n = WALK_N
    complete = [(j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
    jobs = []
    for i, kind in enumerate(("grover", "dft")):
        removed = rng.choice(len(complete), size=int(rng.integers(*DENSE_REMOVED_EDGES)),
                             replace=False)
        edges = set(complete) - {complete[r] for r in removed}
        jobs.append(_walk_job(root, f"dense{i}", n, edges, kind, _random_edge_start(rng, edges)))
    return jobs


# ---------------------------------------------------------------------------
# Physical jobs


@dataclass
class PhysicalJob:
    """``run_walk_physical`` with Grover coins; checked against the oracle walk."""

    state: walk.WalkState
    plan: walk.CoinPlan
    present: np.ndarray
    _expected: np.ndarray | None = field(default=None, repr=False)

    def run(self) -> walk.WalkState:
        return conveyor.run_walk_physical(self.state, self.plan)

    def expected(self) -> np.ndarray:
        """Oracle state in the grid convention: transposed after an odd step count."""
        if self._expected is None:
            x = reference.coin_then_transpose(self.present, "grover", self.state.amp, self.plan.steps)
            self._expected = x.T if self.plan.steps % 2 else x
        return self._expected

    def check(self, final: walk.WalkState) -> str | None:
        deviation = float(np.max(np.abs(final.amp - self.expected())))
        if deviation > WALK_TOL:
            return f"physical state deviates from the oracle walk by {deviation:.3e}"
        return None


def mixed_degree_edges(rng: np.random.Generator, n: int) -> set[tuple[int, int]]:
    """A random Hamiltonian cycle plus Chung-Lu edges of expected degrees spread over [0, n/2 - 2]."""
    order = rng.permutation(n) + 1
    edges = {tuple(sorted((int(a), int(b)))) for a, b in zip(order, np.roll(order, 1))}
    targets = rng.permutation(np.linspace(0.0, n / 2 - 2, n))
    p = np.minimum(1.0, np.outer(targets, targets) / targets.sum())
    draw = rng.random((n, n)) < p
    return edges | {(j + 1, k + 1) for j in range(n) for k in range(j, n) if draw[j, k]}


def physical_job(rng: np.random.Generator, n: int, steps: int) -> PhysicalJob:
    edges = mixed_degree_edges(rng, n)
    g = graph.Graph(n, frozenset(edges))
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    state = walk.WalkState(n, amp / np.linalg.norm(amp))
    return PhysicalJob(state, walk.CoinPlan.from_graph(g, steps, "grover"),
                       reference.adjacency(n, edges))


def generate_physical(seed: int, root: Path) -> list[PhysicalJob]:
    rng = workload_rng("physical", seed)
    return [physical_job(rng, PHYSICAL_N, PHYSICAL_STEPS) for _ in range(PHYSICAL_GRAPHS)]


# ---------------------------------------------------------------------------
# Gate jobs


def gate_config(low: float, **extra) -> dict:
    return {
        "version": 1, "grid": GATE_GRID, "well": GATE_WELL, "solver": {"dt": GATE_DT},
        "timeline": {"ramp_down": GATE_RAMP, "ramp_up": GATE_RAMP,
                     "high": GATE_WELL["barrier_height"], "low": low},
        **extra,
    }


@dataclass
class GateJob:
    """``gridwalk calibrate`` for one target on one double-well variant."""

    config: Path
    out: Path
    low: float
    target: float
    _period: float | None = field(default=None, repr=False)

    def run(self) -> None:
        run_cli(["calibrate", "--config", str(self.config), "--out", str(self.out)])

    def period(self) -> float:
        if self._period is None:
            self._period = reference.doublet_period(GATE_GRID, GATE_WELL, self.low)
        return self._period

    def check(self, _outcome=None) -> str | None:
        report = json.loads((self.out / "report.json").read_text())
        rows = np.loadtxt(self.out / "trajectory.txt", ndmin=2)
        return check_gate(report, rows, self.target, self.period())


def check_gate(report: dict, rows: np.ndarray, target: float, period: float) -> str | None:
    """Targets, leakage, last trajectory row, norms and the doublet period."""
    achieved, leakage = report["achieved_transfer"], report["leakage"]
    if target == 1.0 and not achieved >= 0.99:
        return f"pi transfer {achieved:.5f} < 0.99"
    if target == 0.5 and not abs(achieved - 0.5) <= 0.01:
        return f"pi/2 transfer {achieved:.5f} outside 0.50 ± 0.01"
    if not leakage <= GATE_LEAKAGE_MAX:
        return f"leakage {leakage:.3e} > {GATE_LEAKAGE_MAX}"
    t, p_right, leak_last = rows[-1, 0], rows[-1, 2], rows[-1, 4]
    duration = 2 * GATE_RAMP + report["hold_duration"]
    if abs(t - duration) > GATE_ROW_TOL * duration:
        return f"last trajectory time {t} is not the pulse length {duration}"
    if abs(p_right - achieved) > GATE_ROW_TOL or abs(leak_last - leakage) > GATE_ROW_TOL:
        return "last trajectory row disagrees with the report"
    drift = float(np.max(np.abs(rows[:, 5] - 1.0)))
    if drift > GATE_NORM_TOL:
        return f"norm2 drifts by {drift:.3e}"
    if abs(report["period_estimate"] - period) > GATE_PERIOD_RTOL * period:
        return f"period_estimate {report['period_estimate']} differs from 2pi/(E1-E0) = {period}"
    return None


def generate_gate(seed: int, root: Path) -> list[GateJob]:
    """One low barrier from each of GATE_VARIANTS equal strata of GATE_LOW_BARRIERS."""
    rng = workload_rng("gate", seed)
    jobs = []
    for i, stratum in enumerate(np.array_split(np.array(GATE_LOW_BARRIERS), GATE_VARIANTS)):
        low = float(rng.choice(stratum))
        for target in GATE_TARGETS:
            label = f"variant{i}-{'pi' if target == 1.0 else 'half'}"
            config = write_json(root / f"{label}.json", gate_config(low, target_transfer=target))
            jobs.append(GateJob(config, root / "out" / label, low, target))
    return jobs


GENERATORS = {
    "walk_sparse": generate_walk_sparse,
    "walk_dense": generate_walk_dense,
    "physical": generate_physical,
    "gate": generate_gate,
}
WORKLOADS = tuple(GENERATORS)


def generate(name: str, seed: int, root: Path) -> list:
    root.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, root)


# ---------------------------------------------------------------------------
# Warm-up: one small call through the same entry points, so lazy imports,
# FFT plans and the BLAS/LAPACK start-up are paid in set-up, not in job 1.


def warm_up(name: str, seed: int, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    rng = workload_rng(name, seed)
    if name in ("walk_sparse", "walk_dense"):
        edges = sparse_edges(rng, 16)
        write_edge_list(root / "g.txt", 16, edges)
        config = write_json(root / "walk.json", {
            "version": 1, "graph": "g.txt", "steps": 4, "initial": _random_edge_start(rng, edges),
        })
        argv = ["walk", "--config", str(config), "--out", str(root / "out")]
    elif name == "physical":
        job = physical_job(rng, 8, 1)
        conveyor.run_walk_physical(job.state, job.plan)
        return
    else:
        config = write_json(root / "tdse.json", gate_config(
            GATE_LOW_BARRIERS[0], initial="left", sample_stride=4))
        argv = ["tdse", "--config", str(config), "--out", str(root / "out")]
    run_cli(argv)
