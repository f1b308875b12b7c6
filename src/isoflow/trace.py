"""The run record both flows write: samples of totals and of components.

It lives apart from the grid code so that the radial modes, which write
the same record, import no grid module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ComponentRecord:
    """One component's bookkeeping at a sample or sweep time.

    Frozen records keep the measurements taken at freeze time; they are
    never re-measured.
    """

    id: int
    frozen: bool
    freeze_time: float | None
    perimeter: float
    volume: float
    h_sq_integral: float
    hawking: float


@dataclass
class TraceSample:
    t: float
    area: float
    volume: float
    profile_gap: float  # phi_m(total area) - total volume
    ratio: float  # area^(3/2) / volume
    n_components: int
    n_frozen: int
    components: list[ComponentRecord]

    @property
    def finite(self) -> bool:
        return all(map(math.isfinite, (self.t, self.area, self.volume, self.profile_gap)))


@dataclass
class FlowTrace:
    """Sampled history of one modified-flow run."""

    samples: list[TraceSample] = field(default_factory=list)
    freeze_all_time: float | None = None
    arrival_time: np.ndarray | None = None

    @property
    def incomplete(self) -> bool:
        """The run reached t_max with a live component."""
        return self.freeze_all_time is None


class RunFailure(RuntimeError):
    """A run that cannot go on: its field or a sample went non-finite, or
    its region reached the grid's outer edge.  ``samples`` are the ones
    taken before; ``last_good`` is the time of the latest finite one (NaN
    when there is none)."""

    def __init__(self, reason: str, samples: list[TraceSample]):
        super().__init__(reason)
        self.samples = samples
        good = [s.t for s in samples if s.finite]
        self.last_good = good[-1] if good else math.nan
