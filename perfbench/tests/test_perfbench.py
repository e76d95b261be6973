"""Tests of the benchmark itself: oracles, output checks, input generation, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gridwalk import walk  # noqa: E402

S = 1 / np.sqrt(2)


def ring_edges(n):
    return {tuple(sorted((j, j % n + 1))) for j in range(1, n + 1)}


def balanced_start(n, node):
    """The CLI's 'balanced' start: 1/√2 on the lower neighbour index, i/√2 on the higher."""
    amp = np.zeros((n, n), dtype=complex)
    lower, higher = sorted(((node - 2) % n + 1, node % n + 1))
    amp[node - 1, lower - 1] = S
    amp[node - 1, higher - 1] = 1j * S
    return amp


# ---------------------------------------------------------------------------
# Oracles against hand-computable cases


def test_grover_on_two_states_is_a_swap():
    y = np.array([[1.0 + 2j, -3.0]])
    assert np.allclose(reference.apply_sub_coin(y, "grover"), [[-3.0, 1.0 + 2j]])


def test_dft_sub_coin_is_the_fourier_matrix():
    d = 3
    y = np.arange(1, 7, dtype=complex).reshape(2, d)
    f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    assert np.allclose(reference.apply_sub_coin(y, "dft"), y @ f.T)


def test_ring_walk_first_step_by_hand():
    # node 2 of a 4-ring: (left, right) = (1/√2, i/√2) -> H -> ((1+i)/2, (1-i)/2);
    # the left part moves to node 1, the right part to node 3
    assert np.allclose(reference.ring_walk_distribution(4, 2, 1), [0.5, 0.0, 0.5, 0.0])
    assert np.allclose(reference.ring_walk_distribution(4, 2, 0), [0.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("start", [1, 2, 3, 4])
def test_ring_walk_matches_coin_then_transpose_on_a_4_ring(start):
    present = reference.adjacency(4, ring_edges(4))
    for steps in range(9):
        x = reference.coin_then_transpose(present, "hadamard", balanced_start(4, start), steps)
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=1),
                           reference.ring_walk_distribution(4, start, steps), atol=1e-14)


def test_coin_then_transpose_by_hand():
    # edge (1,2) plus loop (2,2): node 1 has one active state (a fixed point),
    # node 2 has two, where Grover swaps; then the walker moves along its coin
    present = reference.adjacency(2, {(1, 2), (2, 2)})
    amp = np.zeros((2, 2), dtype=complex)
    amp[1, 1] = 1.0  # |node 2, coin 2>, swapped to |2, 1>, moved to |1, 2>
    x = reference.coin_then_transpose(present, "grover", amp, 1)
    assert np.allclose(x, [[0, 1], [0, 0]])
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 1] = 1.0  # |1, 2> stays under the 1×1 coin, then moves to |2, 1>
    assert np.allclose(reference.coin_then_transpose(present, "grover", amp, 1), [[0, 0], [1, 0]])


def test_doublet_period_of_a_free_particle():
    # no wells and no barrier: E0 = 0, E1 = (2π/L)²/2 on a ring of length L = 16
    well = {"depth": 0.0, "width": 1.0, "separation": 1.0, "barrier_width": 1.0}
    period = reference.doublet_period({"x_min": -8.0, "x_max": 8.0, "m": 32}, well, 0.0)
    assert period == pytest.approx(2 * np.pi / ((2 * np.pi / 16) ** 2 / 2), rel=1e-10)


# ---------------------------------------------------------------------------
# The program agrees with the oracles on small inputs


def small_walk_job(tmp_path, label, n, edges, kind, initial):
    job = workloads._walk_job(tmp_path, label, n, edges, kind, initial)
    job.run()
    return job


def test_walk_checks_pass_on_small_graphs(tmp_path):
    rng = np.random.default_rng(5)
    edges = workloads.sparse_edges(rng, 16)
    start = workloads._random_edge_start(rng, edges)
    complete = {(j, k) for j in range(1, 9) for k in range(j, 9)} - {(2, 5)}
    jobs = [
        small_walk_job(tmp_path, "ring", 16, ring_edges(16), "hadamard",
                       {"node": 1, "coin": "balanced"}),
        small_walk_job(tmp_path, "sparse", 16, edges, "grover", start),
        small_walk_job(tmp_path, "dft", 8, complete, "dft", {"node": 3, "coin": 4}),
    ]
    assert [job.check() for job in jobs] == [None, None, None]


def test_physical_check_passes_at_an_odd_step_count():
    job = workloads.physical_job(np.random.default_rng(3), 8, 3)
    assert job.check(job.run()) is None


# ---------------------------------------------------------------------------
# Every check rejects a wrong output


def test_walk_check_rejects_two_swapped_probabilities(tmp_path):
    job = small_walk_job(tmp_path, "ring", 16, ring_edges(16), "hadamard",
                         {"node": 5, "coin": "balanced"})
    lines = (job.out / "distribution.txt").read_text().splitlines()
    p = job.expected()
    i, j = int(np.argmax(p)), int(np.argmin(p))
    lines[i], lines[j] = f"{i + 1} {lines[j].split()[1]}", f"{j + 1} {lines[i].split()[1]}"
    (job.out / "distribution.txt").write_text("\n".join(lines) + "\n")
    assert "deviates" in job.check()


def test_walk_check_rejects_a_missing_node():
    text = "".join(f"{j} 0.25\n" for j in (1, 2, 4, 5))
    assert "nodes" in workloads.check_distribution(text, np.full(4, 0.25))


def test_physical_check_rejects_a_perturbed_state():
    job = workloads.physical_job(np.random.default_rng(4), 8, 2)
    final = job.run()
    amp = final.amp.copy()
    amp[[0, 1]] = amp[[1, 0]]
    assert "deviates" in job.check(walk.WalkState(8, amp))


GATE_PERIOD = reference.doublet_period(workloads.GATE_GRID, workloads.GATE_WELL, 12.0)


def gate_output(achieved=0.997, leakage=0.002, hold=10.0, period=GATE_PERIOD, last=None, norm=1.0):
    report = {"achieved_transfer": achieved, "leakage": leakage, "hold_duration": hold,
              "period_estimate": period}
    rows = np.array([[0.0, 1.0, 0.0, np.nan, 0.0, 1.0],
                     last or [2 * workloads.GATE_RAMP + hold, 0.001, achieved, 0.3, leakage, norm]])
    return report, rows


def test_gate_check_accepts_a_consistent_output():
    assert workloads.check_gate(*gate_output(), 1.0, GATE_PERIOD) is None
    assert workloads.check_gate(*gate_output(achieved=0.505), 0.5, GATE_PERIOD) is None


@pytest.mark.parametrize("output, target, reason", [
    (gate_output(achieved=0.98), 1.0, "pi transfer"),
    (gate_output(achieved=0.515), 0.5, "pi/2 transfer"),
    (gate_output(leakage=0.02), 1.0, "leakage"),
    (gate_output(last=[18.0, 0.001, 0.995, 0.3, 0.002, 1.0]), 1.0, "last trajectory row"),
    (gate_output(last=[17.0, 0.001, 0.997, 0.3, 0.002, 1.0]), 1.0, "pulse length"),
    (gate_output(norm=1.0 + 1e-6), 1.0, "norm2"),
    (gate_output(period=GATE_PERIOD * 1.001), 1.0, "period_estimate"),
])
def test_gate_check_rejects_a_wrong_output(output, target, reason):
    assert reason in workloads.check_gate(*output, target, GATE_PERIOD)


# ---------------------------------------------------------------------------
# Input generation


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", ["walk_sparse", "walk_dense", "gate"])
def test_file_inputs_are_byte_identical_for_one_seed(tmp_path, name):
    workloads.generate(name, 7, tmp_path / "a")
    workloads.generate(name, 7, tmp_path / "b")
    workloads.generate(name, 8, tmp_path / "c")
    first = tree_bytes(tmp_path / "a")
    assert first and first == tree_bytes(tmp_path / "b")
    assert first != tree_bytes(tmp_path / "c")


def test_physical_inputs_are_identical_for_one_seed(tmp_path):
    def snapshot(seed):
        jobs = workloads.generate("physical", seed, tmp_path)
        return [(j.state.amp.tobytes(), j.present.tobytes(),
                 b"".join(c.tobytes() for c in j.plan.coins_for_step(1))) for j in jobs]

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)


def test_gate_variants_cover_every_stratum(tmp_path):
    jobs = workloads.generate("gate", 3, tmp_path)
    lows = sorted({job.low for job in jobs})
    strata = np.array_split(np.array(workloads.GATE_LOW_BARRIERS), workloads.GATE_VARIANTS)
    assert len(lows) == workloads.GATE_VARIANTS
    assert all(low in stratum for low, stratum in zip(lows, strata))
    assert [job.target for job in jobs] == list(workloads.GATE_TARGETS) * workloads.GATE_VARIANTS


class FakeJob:
    def __init__(self, outcome):
        self.outcome = outcome

    def run(self):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome

    def check(self, outcome):
        if outcome == "garbled":
            raise ValueError("cannot parse the output")
        return None if outcome == "ok" else "wrong output"


def test_run_rounds_counts_failed_and_wrong_jobs():
    jobs = [FakeJob("ok"), FakeJob(RuntimeError("exit 3")), FakeJob("bad"), FakeJob("garbled")]
    result = worker.run_rounds(jobs, 0.0)
    assert (result["attempted"], result["failed"], result["wrong"]) == (4, 3, 2)
    assert result["jobs_per_s"] > 0 and result["job_p50_s"] >= 0


# ---------------------------------------------------------------------------
# Tracing and the launcher


def test_traced_walk_job_reports_its_layers(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.job(0):
            job = small_walk_job(tmp_path, "ring", 16, ring_edges(16), "hadamard",
                                 {"node": 2, "coin": "balanced"})
    finally:
        tracer.uninstall()
    figures = tracing.layer_metrics(tracer, [0])
    assert figures["walk.coin_apply_calls"] == workloads.WALK_STEPS
    assert figures["walk.plan_s"] > 0 and figures["graph.parse_s"] > 0
    assert figures["decompose.cs_decompose_calls"] == 0
    assert 0 < figures["cli.self_s"] < tracer.end[1] - tracer.start[1]
    assert tracer.absent == []
    assert job.check() is None
    from gridwalk import cli, conveyor

    assert not hasattr(cli.main, "__wrapped__") and not hasattr(conveyor.cs_decompose, "__wrapped__")


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("walk.gone", "gridwalk.walk", "no_such_function", None),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["walk.gone"]


def test_benchmark_file_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_launcher_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
