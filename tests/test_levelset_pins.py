"""Bit pins of two short level-set runs, one at m = 0 and one at m = 1.

``tests/data/levelset_samples.json`` holds, for every sample of each run,
float.hex of t, area, volume, profile_gap and ratio and of every
component record's floats, plus the sha256 of the arrival-time array's
bytes.  A refactor that keeps the arithmetic must reproduce them exactly.
"""

import hashlib
import json
import os

import pytest

from isoflow.config import ShapeSpec
from isoflow.flow_levelset import FlowRunConfig, run_modified_flow
from isoflow.measure import AxiGrid
from isoflow.metric import AmbientMetric

SAMPLES = os.path.join(os.path.dirname(__file__), "data", "levelset_samples.json")

# the benchmark's dumbbell (m = 0, threshold mass 1) and the m = 1 sphere,
# both at their benchmark grids, cut short
RUNS = {
    "dumbbell-m0": dict(
        mass=0.0,
        shape=ShapeSpec(kind="dumbbell", ball_radius=3.5, separation=8.4, neck_radius=0.7),
        grid=(0.1, 4.4, -8.8, 8.8),
        t_max=1.2,
        sample_interval=0.01,
        sweep_cadence=10,
        threshold_mass=1.0,
    ),
    "sphere-m1": dict(
        mass=1.0,
        shape=ShapeSpec(kind="sphere", r0=4.0),
        grid=(0.088, 4.4, -4.4, 4.4),
        t_max=9.5,
        sample_interval=0.1,
        sweep_cadence=50,
        threshold_mass=None,
    ),
}


def _hex(x):
    return None if x is None else float(x).hex()


def pinned_record(run: dict) -> dict:
    """The recorded form of one run: hex floats per sample, arrival sha256."""
    trace = run_modified_flow(
        FlowRunConfig(
            metric=AmbientMetric(mass=run["mass"]),
            grid=AxiGrid.sample(*run["grid"], run["shape"].signed_distance),
            t_max=run["t_max"],
            sample_interval=run["sample_interval"],
            threshold_mass=run["threshold_mass"],
            sweep_cadence=run["sweep_cadence"],
        )
    )
    samples = [
        {
            **{name: _hex(getattr(s, name)) for name in ("t", "area", "volume", "profile_gap", "ratio")},
            "components": [
                [c.id, c.frozen, _hex(c.freeze_time), _hex(c.perimeter), _hex(c.volume),
                 _hex(c.h_sq_integral), _hex(c.hawking)]
                for c in s.components
            ],
        }
        for s in trace.samples
    ]
    arrival = hashlib.sha256(trace.arrival_time.tobytes()).hexdigest()
    return {"samples": samples, "arrival_sha256": arrival}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_levelset_samples_match_the_recorded_bits(name):
    with open(SAMPLES, encoding="utf-8") as f:
        recorded = json.load(f)[name]
    got = pinned_record(RUNS[name])
    assert len(got["samples"]) == len(recorded["samples"])
    for g, r in zip(got["samples"], recorded["samples"]):
        assert g == r, r["t"]
    assert got["arrival_sha256"] == recorded["arrival_sha256"]
