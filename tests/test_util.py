import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from gridwalk.decompose import (
    ROTATION_TOL,
    Stage,
    cs_decompose,
    sequence_from_json,
    sequence_to_json,
    unitary_from_json,
    unitary_to_json,
)
from gridwalk.errors import UnitarityError
from gridwalk.graph import Graph
from gridwalk.tdse import (
    BlochSamples,
    SpatialGrid,
    Trajectory,
    WaveFunction,
    wavefunction_from_json,
    wavefunction_to_json,
)
from gridwalk.util import (
    check_unitary,
    check_version,
    complex_from_json,
    complex_to_json,
    random_unitary,
    unitarity_defect,
)
from gridwalk.walk import Distribution, WalkState, state_from_json, state_to_json

finite = st.floats(allow_nan=False, allow_infinity=False)
complex_arrays = hnp.arrays(
    np.complex128,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
    elements=st.builds(complex, finite, finite),
)


@given(complex_arrays)
def test_complex_json_round_trip_keeps_every_bit(a):
    text = json.dumps(complex_to_json(a))
    back = complex_from_json(json.loads(text), a.shape)
    assert back.shape == a.shape and back.tobytes() == a.tobytes()
    assert json.dumps(complex_to_json(back)) == text


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_document_writers_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    state_text = state_to_json(WalkState(n, amp / np.linalg.norm(amp)))
    assert state_to_json(state_from_json(state_text)) == state_text
    u = random_unitary(2**n, rng)
    unitary_text = unitary_to_json(u)
    assert unitary_to_json(unitary_from_json(unitary_text)) == unitary_text
    seq_text = sequence_to_json(cs_decompose(u))
    assert sequence_to_json(sequence_from_json(seq_text)) == seq_text
    grid = SpatialGrid(-4.0, 4.0, 16 * n)
    psi = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    wf_text = wavefunction_to_json(WaveFunction(grid, psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)))
    assert wavefunction_to_json(wavefunction_from_json(wf_text)) == wf_text


def test_complex_json_writes_float_pairs_in_c_order():
    a = np.array([[1 + 2j, -0.0 + 0j], [3.5, -1j]])
    assert complex_to_json(a) == [[1.0, 2.0], [-0.0, 0.0], [3.5, 0.0], [0.0, -1.0]]


@pytest.mark.parametrize("pairs", [
    [[1, 0], [0, 1]], [[1, 0, 0]], [[1, 0], [0]], [["a", 0]], [1, 0], [[True, 0]], [[1, False]],
])
def test_complex_from_json_rejects_malformed_pairs(pairs):
    with pytest.raises(ValueError):
        complex_from_json(pairs, (1,))


def test_versioned_readers_reject_other_versions(rng):
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 0] = 1
    grid = SpatialGrid(-4.0, 4.0, 16)
    documents = [
        (state_to_json(WalkState(2, amp)), state_from_json),
        (sequence_to_json(cs_decompose(random_unitary(4, rng))), sequence_from_json),
        (wavefunction_to_json(WaveFunction(grid, np.full(16, 1 / np.sqrt(8.0)))), wavefunction_from_json),
    ]
    for text, read in documents:
        read(text)
        doc = json.loads(text)
        doc["version"] = 99
        with pytest.raises(ValueError, match="version must be 1"):
            read(json.dumps(doc))
        del doc["version"]
        with pytest.raises(ValueError, match="version must be 1"):
            read(json.dumps(doc))
        with pytest.raises(ValueError, match="must be a JSON object"):
            read(json.dumps([doc]))


def test_check_version():
    check_version({"version": 2}, 2, "thing")
    with pytest.raises(ValueError, match="thing version must be 2, got 1"):
        check_version({"version": 1}, 2, "thing")


@pytest.mark.parametrize("version", [True, 1.0])
def test_versioned_readers_reject_a_version_that_only_equals_one(version):
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 0] = 1
    doc = json.loads(state_to_json(WalkState(2, amp)))
    doc["version"] = version
    with pytest.raises(ValueError, match="version must be 1"):
        state_from_json(json.dumps(doc))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
def test_random_unitary_is_scipys_draw_to_the_bit(n):
    from scipy.stats import unitary_group

    for seed in range(5):
        ours = random_unitary(n, np.random.default_rng(seed))
        theirs = unitary_group.rvs(n, random_state=np.random.default_rng(seed))
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


# ---------------------------------------------------------------------------
# The closed-form 2×2 unitarity kernel beside its Gram oracle


def haar_blocks(rng, lead: tuple[int, ...]) -> np.ndarray:
    """Haar-random 2×2 unitaries stacked over the leading shape ``lead``."""
    return np.stack([random_unitary(2, rng) for _ in range(math.prod(lead))]).reshape(lead + (2, 2))


@st.composite
def block_stacks(draw) -> np.ndarray:
    """Stacks of shape (2, 2), (k, 2, 2) or (a, b, 2, 2): arbitrary, perturbed unitary or near ROTATION_TOL."""
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 9)),), (draw(st.integers(1, 4)), draw(st.integers(1, 4)))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["arbitrary", "perturbed", "near_tolerance"]))
    if family == "arbitrary":
        return rng.uniform(-1, 1, lead + (2, 2)) + 1j * rng.uniform(-1, 1, lead + (2, 2))
    u = haar_blocks(rng, lead)
    if family == "perturbed":
        return u + 10.0 ** rng.uniform(-17, -9) * (rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
    # scaling a unitary by √(1 + δ) gives max|u†u − I| = δ
    return u * np.sqrt(1 + rng.choice([0.5e-12, 0.9e-12, 1.1e-12, 2e-12], size=lead + (1, 1)))


@given(block_stacks())
def test_the_2x2_kernel_matches_the_gram_oracle(u):
    assert abs(unitarity_defect(u) - oracles.gram_defect(u)) <= 1e-15


@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.data())
def test_the_2x2_kernel_and_the_oracle_decide_alike_near_the_rotation_tolerance(k, seed, data):
    # one block of a unitary stack at a defect of half or twice ROTATION_TOL
    rng = np.random.default_rng(seed)
    for defect, accepted in ((0.5e-12, True), (2e-12, False)):
        u = haar_blocks(rng, (k,))
        u[data.draw(st.integers(0, k - 1))] *= np.sqrt(1 + defect)
        assert (oracles.gram_defect(u) < ROTATION_TOL) is accepted
        assert (unitarity_defect(u) < ROTATION_TOL) is accepted
        if accepted:
            check_unitary(u, ROTATION_TOL)
        else:
            with pytest.raises(UnitarityError):
                check_unitary(u, ROTATION_TOL)


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf", "nan-imag", "-inf-imag"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=["a", "b", "c", "d"])
def test_a_non_finite_entry_fails_the_2x2_check(entry, value, rng):
    u = random_unitary(2, rng)
    u[entry] = value
    with pytest.raises(UnitarityError):
        check_unitary(u, ROTATION_TOL)
    stack = haar_blocks(rng, (5,))
    stack[3][entry] = value
    with pytest.raises(UnitarityError):
        check_unitary(stack, ROTATION_TOL)


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2, 2), (0, 3, 3), (0, 0), (4, 0, 0)])
def test_an_empty_stack_has_no_defect(shape):
    assert unitarity_defect(np.zeros(shape, dtype=complex)) == 0.0
    check_unitary(np.zeros(shape, dtype=complex), ROTATION_TOL)


ROOT = Path(__file__).resolve().parents[1]
SOLVERS = {"gridwalk.conveyor", "gridwalk.decompose", "gridwalk.tdse"}


def loaded_modules(code: str) -> list[str]:
    """The module names a fresh interpreter holds after running ``code`` against this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", f"import sys; {code}; print(*sys.modules)"], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    # the last line: ``code`` may print lines of its own
    return out.stdout.splitlines()[-1].split()


def is_scipy(module: str) -> bool:
    return module.split(".")[0] == "scipy"


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    loaded = loaded_modules("import gridwalk.cli")
    assert "gridwalk.cli" in loaded and [m for m in loaded if is_scipy(m) or m in SOLVERS] == []


# (subcommand, shipped config, flags); the solver modules a process running it loads; the scipy
# modules it loads; the scipy modules it leaves unloaded, or None for every scipy module
RUNS = [
    ("walk walk_cycle64 --oracle", [], [], None),
    ("walk walk_complete16_dft --oracle", [], [], None),
    ("conveyor-verify conveyor_verify_n8 --seed 7", ["conveyor", "decompose"], [], None),
    ("tdse tdse_pi", ["tdse"], [], None),
    ("decompose decompose_random8", ["decompose"], ["linalg"], []),
    ("calibrate calibrate_pi", ["tdse"], [], None),
]


@pytest.mark.parametrize("run, solvers, scipy_loaded, scipy_unloaded", RUNS, ids=[r[0].split()[1] for r in RUNS])
def test_a_subcommand_process_loads_only_the_solvers_and_scipy_it_runs(run, solvers, scipy_loaded,
                                                                       scipy_unloaded, tmp_path):
    sub, name, *flags = run.split()
    argv = [sub, "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(tmp_path), *flags]
    loaded = set(loaded_modules(f"from gridwalk.cli import main; assert main({argv!r}) == 0"))
    assert loaded & SOLVERS == {f"gridwalk.{m}" for m in solvers}
    assert {f"scipy.{m}" for m in scipy_loaded} <= loaded
    if scipy_unloaded is None:
        assert [m for m in loaded if is_scipy(m)] == []
    else:
        assert not {f"scipy.{m}" for m in scipy_unloaded} & loaded


def test_importing_the_walk_leaves_scipy_and_the_solvers_unloaded():
    # the conveyor imports the walk's stepping loop, never the reverse
    loaded = loaded_modules("import gridwalk.walk")
    unwanted = [m for m in loaded if m in SOLVERS or is_scipy(m)]
    assert "gridwalk.walk" in loaded and unwanted == []


def test_the_conveyor_and_a_grover_physical_walk_leave_scipy_linalg_unloaded():
    walk = ("from gridwalk.conveyor import run_walk_physical; from gridwalk.graph import Graph; "
            "from gridwalk.walk import CoinPlan, init_localized; "
            "run_walk_physical(init_localized(6, 1, 2), CoinPlan.from_graph(Graph(6, [(1, 2), (2, 3), (3, 3)]), 3))")
    for code in ["import gridwalk.conveyor", walk]:
        loaded = loaded_modules(code)
        assert "gridwalk.conveyor" in loaded and "scipy.linalg" not in loaded


# ---------------------------------------------------------------------------
# Value types

GRID16 = SpatialGrid(-4.0, 4.0, 16)
# unit norm on GRID16 (dx = 0.5), with +0.0 entries
PSI16 = np.concatenate(([np.sqrt(2.0)], np.zeros(15))).astype(complex)

# each class with a builder of one value of it (or of a subclass), holding +0.0 unless a Graph
VALUES = [
    (WalkState, lambda cls: cls(2, np.array([[1.0, 0.0], [0.0, 0.0]]))),
    (Distribution, lambda cls: cls(np.array([1.0, 0.0]))),
    (Graph, lambda cls: cls(3, [(1, 2), (3, 3)])),
    (Stage, lambda cls: cls(2, np.eye(2)[np.newaxis])),
    (WaveFunction, lambda cls: cls(GRID16, PSI16.copy())),
    (Trajectory, lambda cls: cls(GRID16, np.array([0.0, 1.0]), np.stack([PSI16, PSI16]))),
    (BlochSamples, lambda cls: cls(np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                   np.full(2, np.nan), np.zeros(2))),
]


def array_fields(value) -> dict:
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)
            if isinstance(getattr(value, f.name), np.ndarray)}


def with_negative_zero(value):
    """A copy whose first float array holds −0.0 for its first +0.0, set past the constructor."""
    for name, a in array_fields(value).items():
        if a.dtype.kind in "fc":
            parts = a.copy().reshape(-1).view(float)
            parts[np.flatnonzero((parts == 0) & ~np.signbit(parts))[0]] = -0.0
            twin = copy.copy(value)
            object.__setattr__(twin, name, parts.view(a.dtype).reshape(a.shape))
            return twin
    return None


@pytest.mark.parametrize("cls, make", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_value_types_compare_and_hash_by_class_and_bytes(cls, make):
    a, b = make(cls), make(cls)
    arrays = array_fields(a)
    assert not any(x.flags.writeable for x in arrays.values())
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # −0.0 and +0.0 are equal numbers with other bytes; Distribution's constructor
    # clips −0.0 to +0.0, so the twin is set past it
    twin = with_negative_zero(a)
    if twin is not None:  # a Graph holds booleans only
        assert twin != a and a != twin and hash(twin) != hash(a)
    # the same arrays under another class are another value
    other = make(type(f"Other{cls.__name__}", (cls,), {}))
    assert all(np.array_equal(x, getattr(other, name), equal_nan=True) for name, x in arrays.items())
    assert a != other and other != a
