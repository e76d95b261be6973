"""Byte-level golden outputs of the synthesis, the walks and the gate runs.

The digests were recorded from the pair-by-pair implementation (one 2×2
rotation object per pair, one copied grid per conveyor primitive). Any
rewrite of the stage layout or the conveyor must reproduce the same bytes on
the same platform (numpy 2.4, scipy 1.17, x86-64).
"""

import hashlib
import json
from pathlib import Path

import numpy as np

import pytest

from gridwalk.cli import EXIT_OK, main
from gridwalk.conveyor import ProtocolTrace, format_trace, run_walk_physical
from gridwalk.decompose import cs_decompose, sequence_to_json
from gridwalk.graph import Graph
from gridwalk.util import random_unitary
from gridwalk.walk import CoinPlan, WalkState

PHYSICAL_TRACE_SHA256 = "bae159d7a96a9c298f80bae9365c262c0bbba3a8bdd495dce14481abc7f1d8da"
PHYSICAL_STATE_SHA256 = "f4963d67055e43d6ff54c575e25669bc3a1832b7d17f77e5a052a4efa461c6f3"
SEQUENCE16_SHA256 = "7ad495b46d9b169da9ad87bdf9abf6cc62745abbe973d5bc40b361f525d0534d"
# recorded from the per-block synthesis (one identity test and one branch per block);
# the DFT coins are those whose phases are formed from jk mod n
MASKED_STACK_SHA256 = {
    "grover": "be25e8e7afb2347120cb5a641f994cfa64bea6277ce9b13bcc448a6e7eaae0df",
    "dft": "e178efd233bf6ccfa9e6aecd40941a033f0c8c7e390e1ebb624ca6a61c437da9",
}

# recorded from the 2n×2n-grid conveyor-verify (embed a whole grid per stage, run the
# stage on one of its lines, read the whole grid back), at --seed 7
CONVEYOR_VERIFY_SHA256 = {
    "conveyor_verify_n8": {
        "report.json": "a998c30cf56f7dee45b379c4ccb37930a11a5f7bc3de8d52f56c0e230c36f4e3",
        "trace.txt": "55236a7a00b38a5c0d9a5d9aaf523c553f14c7f0cbcdfa696907cf2c9959013f",
    },
    "conveyor_verify_n64": {
        "report.json": "0e2142233e1aa6bd6423fdaf394b6508dddc68917c9c98af8c762021af2f3963",
        "trace.txt": "db7f8e01546d73a7b4327ddc2f0e524669c4260ce217fbc820088b1a8fae6a7e",
    },
}

# recorded while CalibrationResult still copied basis, ramp_down and period from its
# HoldScan and Stage objects still cached their 1-based pair tables;
# calibrate_pi_unequal (ramp_up 3, ramp_down 4) reaches HoldScan's second pass.
# The walks run with --oracle; their digests were recorded while every Grover and DFT
# coin group still stored its d×d coin
SHIPPED_RUN_SHA256 = {
    ("decompose", "decompose_random8"): {
        "report.json": "205608d53fc9039c12b52bc03a1fe667bea0fc9b3bec6f97a2cc8b65cdfa7d54",
        "stages.json": "7e8c5218aa13cc75fcebe3d27ece2b8c2c04b1b8601521505d8f2de8576d4657",
    },
    ("tdse", "tdse_pi"): {
        "report.json": "86de50c3521a25448b34aa87cdafecb95560dfed675e88c52d5e4b767ebc7754",
        "trajectory.txt": "b16dce5204a89355ddb01a01f07705c3124dc84f2cb776a91c8222b45e75b706",
    },
    ("calibrate", "calibrate_pi"): {
        "report.json": "bd296d036259b33b8a84d23d06bd5b11bc80a369ba61a59eae2f0aa0dcbf3ab2",
        "trajectory.txt": "5ca6aa0920312eddb9a5a99e15ea37070b37c92d6fa9c3561dce741f978dad70",
    },
    ("calibrate", "calibrate_half"): {
        "report.json": "229f726077a3c99464494137c51d6cdcc1633e96c48f7cf41e0663cedf9a0c6a",
        "trajectory.txt": "9f8b18c170ec5fdce4461f4adf415b60c708c8dbff5d647c91dfcd749ab5995c",
    },
    ("calibrate", "calibrate_pi_unequal"): {
        "report.json": "89febddd19e9e395ac5fd22212e082d21350bc9ec5b00d016dd3bb8d0370b6e4",
        "trajectory.txt": "1cdc539448a2aa48a7dfbf5cf58c45848f34532a3a4ab07f6aa16226e1e75e2f",
    },
    ("walk", "walk_cycle64"): {
        "report.json": "4853f769cb4aa45500ebcdd0c4b8931afc50c12480e0fbdbcdec438953908913",
        "distribution.txt": "1e2dac9e8f934214573fd16fa56ef8be284c013f3ae7edaaeaac818d87b05269",
        "state.json": "72ad0f2bbc919b86e54a8cd29d43e9f31419f34bb7e3086fc8fcb2187d6878cb",
    },
    ("walk", "walk_complete16_dft"): {
        "report.json": "d320625527c3fd62379bbfd8e7e712d90d2533bdcf1713c042954a67f63cf7fb",
        "distribution.txt": "31796c4ec7b2a3db654439733191d4fbf566fe19fa6a83aa9947ae40c4855c3b",
    },
    ("walk", "walk_complete16_grover"): {
        "report.json": "d8a905cd1912641a7092150ad3a2e2998ab5355e8e03ebf352203c327a1e09c9",
        "distribution.txt": "79131e3d416cb6a51dc28dc40643e761b1b6fd3d44d909bfa06b5bf53b468327",
    },
}

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_traced_padded_physical_walk_is_byte_identical():
    # n = 6 pads to 8: the stacked coins are padded with identity lines and states,
    # every line runs seven stages, three steps alternate rows, columns, rows
    rng = np.random.default_rng(5)
    n, steps = 6, 3
    plan = CoinPlan.from_step_coins(
        [[random_unitary(n, rng) for _ in range(n)] for _ in range(steps)]
    )
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s0 = WalkState(n, amp / np.linalg.norm(amp))
    trace = ProtocolTrace()
    out = run_walk_physical(s0, plan, trace)
    assert len(trace.stages) == steps * n * 7
    assert sha256(format_trace(trace).encode()) == PHYSICAL_TRACE_SHA256
    assert sha256(out.amp.tobytes()) == PHYSICAL_STATE_SHA256


def test_sequence_json_of_a_seeded_16x16_unitary_is_byte_identical():
    u = random_unitary(16, np.random.default_rng(16))
    assert sha256(sequence_to_json(cs_decompose(u)).encode()) == SEQUENCE16_SHA256


@pytest.mark.parametrize("kind", sorted(MASKED_STACK_SHA256))
def test_sequence_json_of_a_masked_coin_stack_is_byte_identical(kind):
    # degrees 4, 3, 3, 2, 4, 2, 1, 0: node 3 has a self-loop and node 8 is
    # isolated, so the stack holds exact identity coins (kept +0.0 in the −s
    # slot) and factorized blocks with θ = 0 (−0.0 there)
    edges = {(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 3), (4, 5), (5, 6), (5, 7), (2, 6)}
    plan = CoinPlan.from_graph(Graph(8, frozenset(edges)), 1, kind)
    seq = cs_decompose(np.stack(plan.coins_for_step(1)))
    assert sha256(sequence_to_json(seq).encode()) == MASKED_STACK_SHA256[kind]


@pytest.mark.parametrize("name", sorted(CONVEYOR_VERIFY_SHA256))
def test_seeded_conveyor_verify_outputs_are_byte_identical(name, tmp_path):
    config = CONFIGS / f"{name}.json"
    assert main(["conveyor-verify", "--config", str(config), "--out", str(tmp_path), "--seed", "7"]) == EXIT_OK
    for file, digest in CONVEYOR_VERIFY_SHA256[name].items():
        assert sha256((tmp_path / file).read_bytes()) == digest, file
    # the conveyor and apply_stage share rotate_in_place, so they agree bit for bit
    assert json.loads((tmp_path / "report.json").read_text())["max_deviation"] == 0.0


@pytest.mark.parametrize("run", sorted(SHIPPED_RUN_SHA256), ids="-".join)
def test_shipped_config_outputs_are_byte_identical(run, tmp_path):
    sub, name = run
    oracle = ["--oracle"] if sub == "walk" else []
    assert main([sub, "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path), *oracle]) == EXIT_OK
    for file, digest in SHIPPED_RUN_SHA256[run].items():
        assert sha256((tmp_path / file).read_bytes()) == digest, file
