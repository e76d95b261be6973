"""Shared double-well gate setup used by the TDSE and acceptance tests.

The numbers were fixed by a parameter sweep: stiff wells keep the doublet far
below the next level (gap ≈ 3.5 at the low barrier), the high barrier makes
the rest splitting ≈ 2.3e-3 so a parked packet barely tunnels, and cosine
ramps of 4 time units keep leakage in the 1e-3 range at every hold.
"""

from gridwalk.tdse import BarrierTimeline, DoubleWellSpec, SpatialGrid

BARRIER_HIGH = 28.0
BARRIER_LOW = 12.0
RAMP = 4.0


def gate_grid(m: int = 128) -> SpatialGrid:
    return SpatialGrid(-8.0, 8.0, m)


def gate_spec(tilt: float = 0.0) -> DoubleWellSpec:
    return DoubleWellSpec(
        well_depth=20.0,
        well_width=0.9,
        well_separation=1.7,
        barrier_width=0.6,
        tilt=tilt,
    )


def gate_timeline(hold: float = 0.0, low: float = BARRIER_LOW) -> BarrierTimeline:
    return BarrierTimeline(
        ramp_down_duration=RAMP,
        hold_duration=hold,
        ramp_up_duration=RAMP,
        high_barrier=BARRIER_HIGH,
        low_barrier=low,
    )
