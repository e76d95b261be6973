"""Span tracing of gridwalk's public functions, for the traced run only.

``Tracer.install`` replaces each function in TARGETS at the name where its
callers look it up (``conveyor`` imports ``cs_decompose`` by name, so the
wrapper goes on ``gridwalk.conveyor.cs_decompose``). Every call records a
span: name, start, end, parent span, job id, and for ``cs_decompose`` the
number of stages it returned. Spans live in flat arrays in memory and are
written out once, when the run ends. A target the program no longer has is
listed as absent. ``layer_metrics`` derives the per-layer figures, self
times included, from the spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (span name, module, attribute path at the call site, value recorded from the result)
TARGETS = (
    ("cli.main", "gridwalk.cli", "main", None),
    ("graph.parse_graph", "gridwalk.cli", "parse_graph", None),
    ("walk.CoinPlan.from_graph", "gridwalk.walk", "CoinPlan.from_graph", None),
    ("walk.evolve", "gridwalk.walk", "evolve", None),
    ("walk.apply_coin_rows", "gridwalk.walk", "apply_coin_rows", None),
    ("walk.apply_coin_cols", "gridwalk.walk", "apply_coin_cols", None),
    ("conveyor.run_walk_physical", "gridwalk.conveyor", "run_walk_physical", None),
    ("decompose.cs_decompose", "gridwalk.conveyor", "cs_decompose", lambda seq: len(seq.stages)),
    ("conveyor.run_stage", "gridwalk.conveyor", "run_stage", None),
    ("conveyor.pi_transfer", "gridwalk.conveyor", "pi_transfer", None),
    ("conveyor.shift_register", "gridwalk.conveyor", "shift_register", None),
    ("conveyor.rotate_pairs", "gridwalk.conveyor", "rotate_pairs", None),
    ("tdse.calibrate_hold_time", "gridwalk.tdse", "calibrate_hold_time", None),
    ("tdse.evolve_timeline", "gridwalk.tdse", "evolve_timeline", None),
    ("tdse.chebyshev_step", "gridwalk.tdse", "chebyshev_step", None),
    ("tdse.apply_hamiltonian", "gridwalk.tdse", "apply_hamiltonian", None),
    ("tdse.well_ground_states", "gridwalk.tdse", "well_ground_states", None),
    ("tdse.doublet_splitting", "gridwalk.tdse", "doublet_splitting", None),
    ("tdse.trajectory_to_text", "gridwalk.tdse", "trajectory_to_text", None),
)

JOB = "job"


class Tracer:
    def __init__(self):
        self.names = [JOB]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("i")
        self.value = array("d")
        self.stack: list[int] = []
        self.current_job = -1
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        index = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job_id.append(self.current_job)
        self.value.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def job(self, job_id: int):
        """The root span of one job; calls inside it carry its id."""
        self.current_job = job_id
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)
            self.current_job = -1

    def _wrap(self, name: str, fn, measure):
        self.names.append(name)
        name_id = len(self.names) - 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if measure is not None:
                self.value[index] = measure(result)
            return result

        return wrapper

    def install(self) -> None:
        for name, module, path, measure in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if outer else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__, measure))
            else:
                wrapped = self._wrap(name, raw, measure)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent),
            "job": np.array(self.job_id),
            "value": np.array(self.value),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), absent=np.array(self.absent, dtype=str),
                 **self.spans())


# (metric, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("graph.parse_s", "s", "lower"),
    ("walk.plan_s", "s", "lower"),
    ("walk.evolve_s", "s", "lower"),
    ("walk.coin_apply_s", "s", "lower"),
    ("walk.coin_apply_calls", "count", "lower"),
    ("decompose.cs_decompose_s", "s", "lower"),
    ("decompose.cs_decompose_calls", "count", "lower"),
    ("decompose.stages_per_call", "stages/call", "lower"),
    ("conveyor.self_s", "s", "lower"),
    ("conveyor.run_stage_calls", "count", "lower"),
    ("conveyor.run_stage_s", "s", "lower"),
    ("conveyor.primitive_calls", "count", "lower"),
    ("tdse.calibrate_s", "s", "lower"),
    ("tdse.timeline_replays", "count", "lower"),
    ("tdse.evolve_timeline_s", "s", "lower"),
    ("tdse.chebyshev_steps", "count", "lower"),
    ("tdse.chebyshev_step_s", "s", "lower"),
    ("tdse.hamiltonian_applications", "count", "lower"),
    ("tdse.terms_per_step", "terms/step", "lower"),
    ("tdse.eigensolve_s", "s", "lower"),
    ("tdse.export_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.jobs_per_s", "1/s", "higher"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def job_layer_figures(names: list[str], spans: dict[str, np.ndarray], job: int) -> dict[str, float]:
    """Per-layer figures of one job; NaN where a per-call mean has no calls."""
    rows = np.flatnonzero(spans["job"] == job)
    # jobs run one after another, so each job's spans are contiguous
    lo, hi = rows[0], rows[-1] + 1
    ids = spans["name_id"][lo:hi]
    parent = spans["parent"][lo:hi] - lo
    duration = spans["end"][lo:hi] - spans["start"][lo:hi]
    value = spans["value"][lo:hi]

    def select(*wanted) -> np.ndarray:
        return np.isin(ids, [names.index(w) for w in wanted if w in names])

    def total(*wanted) -> float:
        return float(duration[select(*wanted)].sum())

    def count(*wanted) -> int:
        return int(select(*wanted).sum())

    def self_time(name: str, children=None) -> float:
        """Span time of `name` minus its direct children (all, or those named)."""
        own = select(name)
        child = (parent >= 0) & own[np.maximum(parent, 0)]
        if children is not None:
            child &= select(*children)
        return float(duration[own].sum() - duration[child].sum())

    coin_calls = count("walk.apply_coin_rows", "walk.apply_coin_cols")
    cs_calls = count("decompose.cs_decompose")
    stages = count("conveyor.run_stage")
    timelines = count("tdse.evolve_timeline")
    steps = count("tdse.chebyshev_step")
    h_apps = count("tdse.apply_hamiltonian")
    return {
        "graph.parse_s": total("graph.parse_graph"),
        "walk.plan_s": total("walk.CoinPlan.from_graph"),
        "walk.evolve_s": total("walk.evolve"),
        "walk.coin_apply_s": _ratio(total("walk.apply_coin_rows", "walk.apply_coin_cols"), coin_calls),
        "walk.coin_apply_calls": coin_calls,
        "decompose.cs_decompose_s": total("decompose.cs_decompose"),
        "decompose.cs_decompose_calls": cs_calls,
        "decompose.stages_per_call": _ratio(float(value[select("decompose.cs_decompose")].sum()), cs_calls),
        "conveyor.self_s": self_time("conveyor.run_walk_physical", ["decompose.cs_decompose"]),
        "conveyor.run_stage_calls": stages,
        "conveyor.run_stage_s": _ratio(total("conveyor.run_stage"), stages),
        "conveyor.primitive_calls": count(
            "conveyor.pi_transfer", "conveyor.shift_register", "conveyor.rotate_pairs"),
        "tdse.calibrate_s": total("tdse.calibrate_hold_time"),
        "tdse.timeline_replays": timelines,
        "tdse.evolve_timeline_s": _ratio(total("tdse.evolve_timeline"), timelines),
        "tdse.chebyshev_steps": steps,
        "tdse.chebyshev_step_s": _ratio(total("tdse.chebyshev_step"), steps),
        "tdse.hamiltonian_applications": h_apps,
        "tdse.terms_per_step": _ratio(h_apps, steps),
        "tdse.eigensolve_s": total("tdse.well_ground_states", "tdse.doublet_splitting"),
        "tdse.export_s": total("tdse.trajectory_to_text"),
        "cli.self_s": self_time("cli.main"),
    }


def layer_metrics(tracer: Tracer, jobs: list[int]) -> dict[str, float]:
    """Median over jobs of each per-job figure; 0 for a layer no job entered."""
    spans = tracer.spans()
    per_job = [job_layer_figures(tracer.names, spans, j) for j in jobs]
    out = {}
    for metric in per_job[0]:
        values = [f[metric] for f in per_job if not np.isnan(f[metric])]
        out[metric] = float(np.median(values)) if values else 0.0
    return out
