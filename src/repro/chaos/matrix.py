"""The chaos matrix: a deterministic seeded grid over the fault space.

PR 3's fault subsystem ships five hand-written scenarios; this module
grows that into systematic state-space exploration in the style of
Clotho's chaos matrix.  The grid is the cartesian product of

* **fault profiles** — named rate bundles for the injector's channels,
  including one (``late-delay``) whose delay exceeds the path timeout
  specifically to exercise the abandoned-root resurrection guard,
* **fault windows** — ``[start, end)`` pairs whose ends land exactly on
  interval boundaries (the half-open ``active_at`` contract),
* **crash schedules** — scheduled node-crash shapes,
* **store configurations** — (shards, batch size) pairs,
* **engines** — tick oracle and converged-replay fast path, and
* **profiler modes** — the exact and component precision tiers.

Every cell is fully determined by its **grid index** plus the run-level
parameters (app, manager, duration, base seed): the cell's RNG seed is
derived arithmetically from the base seed and the grid index, so any
cell can be regenerated — and re-run bit-identically — from its cell id
alone.  The cell id embeds a digest of the cell's canonical parameters;
:func:`cell_by_id` refuses an id whose digest does not match the
regenerated cell, which catches replaying against a drifted matrix
definition.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import EvaluationError
from repro.faults.plan import FaultPlan, NodeCrash

#: Fault profiles: name -> FaultPlan rate kwargs (window/seed added per
#: cell).  ``late-delay`` delays messages *past* the default path
#: timeout (5 minutes) so delayed deliveries arrive for already-abandoned
#: roots — the resurrection-guard stressor.
FAULT_PROFILES: Mapping[str, Mapping[str, float]] = {
    "drop-storm": {"message_drop_rate": 0.30, "edge_loss_rate": 0.10},
    "dup-delay": {
        "message_duplicate_rate": 0.20,
        "message_delay_rate": 0.15,
        "message_delay_minutes": 2.0,
    },
    "late-delay": {
        "message_delay_rate": 0.25,
        "message_delay_minutes": 8.0,
        "message_duplicate_rate": 0.05,
    },
    "store-brownout": {"store_write_failure_rate": 0.40},
    "flush-loss": {"profiler_flush_loss_rate": 0.30, "message_drop_rate": 0.05},
    "mixed": {
        "message_drop_rate": 0.10,
        "message_duplicate_rate": 0.05,
        "message_delay_rate": 0.05,
        "message_delay_minutes": 2.0,
        "edge_loss_rate": 0.05,
        "store_write_failure_rate": 0.15,
        "profiler_flush_loss_rate": 0.10,
    },
}

#: Fault windows: (start, end) minutes.  Both ends are exact interval
#: boundaries so the sweep continuously exercises the half-open
#: ``active_at`` edge in both engines.
FAULT_WINDOWS: Tuple[Tuple[float, float], ...] = ((4.0, 16.0), (10.0, 28.0))

#: Crash schedules: name -> ((minute, component, count), ...).
CRASH_SCHEDULES: Mapping[str, Tuple[Tuple[float, str, int], ...]] = {
    "none": (),
    "mid": ((12.0, "*", 2),),
}

#: (num_shards, write_batch_size) pairs.
STORE_CONFIGS: Tuple[Tuple[int, int], ...] = ((1, 1), (4, 32), (2, 8))

ENGINES: Tuple[str, ...] = ("tick", "event")
PROFILER_MODES: Tuple[str, ...] = ("exact", "component")

#: Axis iteration order (outermost first); the grid index encodes a cell
#: position in this fixed order, so ids stay stable as long as the axis
#: definitions above do not change — and the id digest catches it when
#: they do.
_PROFILE_NAMES = tuple(FAULT_PROFILES)
_CRASH_NAMES = tuple(CRASH_SCHEDULES)


@dataclass(frozen=True)
class ChaosCell:
    """One fully-determined point of the chaos matrix."""

    grid_index: int
    fault_profile: str
    start_minute: float
    end_minute: float
    crash_schedule: str
    num_shards: int
    write_batch_size: int
    engine: str
    profiler_mode: str
    # Run-level parameters (shared by every cell of one matrix).
    app: str = "hedwig"
    manager: str = "DCA-10%"
    duration_minutes: int = 40
    base_seed: int = 7
    path_timeout_minutes: float = 5.0

    @property
    def seed(self) -> int:
        """The cell's injector/workload seed (derived, never stored)."""
        return (self.base_seed * 1_000_003 + self.grid_index * 101) % (2**31 - 1)

    def seed_for(self, repeat: int) -> int:
        """Seed of one repeated run of this cell (repeat 0 = the base)."""
        return (self.seed + repeat * 7919) % (2**31 - 1)

    def canonical(self) -> Dict[str, object]:
        """Stable, JSON-safe parameter dump (digest + bundle payload)."""
        return {
            "grid_index": self.grid_index,
            "fault_profile": self.fault_profile,
            "start_minute": self.start_minute,
            "end_minute": self.end_minute,
            "crash_schedule": self.crash_schedule,
            "num_shards": self.num_shards,
            "write_batch_size": self.write_batch_size,
            "engine": self.engine,
            "profiler_mode": self.profiler_mode,
            "app": self.app,
            "manager": self.manager,
            "duration_minutes": self.duration_minutes,
            "base_seed": self.base_seed,
            "path_timeout_minutes": self.path_timeout_minutes,
        }

    @property
    def cell_id(self) -> str:
        """``<grid_index>-<digest8>``: position plus a parameter digest."""
        blob = json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        return f"{self.grid_index:03d}-{hashlib.sha1(blob).hexdigest()[:8]}"

    def fault_plan(self, repeat: int = 0) -> FaultPlan:
        profile = FAULT_PROFILES[self.fault_profile]
        crashes = tuple(
            NodeCrash(minute=minute, component=component, count=count)
            for minute, component, count in CRASH_SCHEDULES[self.crash_schedule]
        )
        return FaultPlan(
            seed=self.seed_for(repeat),
            start_minute=self.start_minute,
            end_minute=self.end_minute,
            node_crashes=crashes,
            **profile,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ChaosCell":
        try:
            return cls(**{k: data[k] for k in cls.__dataclass_fields__})
        except KeyError as exc:
            raise EvaluationError(f"chaos cell dict missing key {exc}") from exc


@dataclass(frozen=True)
class MatrixConfig:
    """Run-level knobs shared by every cell of one sweep."""

    app: str = "hedwig"
    manager: str = "DCA-10%"
    duration_minutes: int = 40
    base_seed: int = 7
    path_timeout_minutes: float = 5.0


class ChaosMatrix:
    """Deterministic enumeration of the fault-space grid.

    The full product currently spans ``len(FAULT_PROFILES) x
    len(FAULT_WINDOWS) x len(CRASH_SCHEDULES) x len(STORE_CONFIGS) x
    len(ENGINES) x len(PROFILER_MODES)`` cells; :meth:`select` returns a
    size-bounded, evenly-strided subset that still touches every axis —
    the stride keeps coverage broad instead of exhausting the first axis
    first.
    """

    def __init__(self, config: Optional[MatrixConfig] = None) -> None:
        self.config = config or MatrixConfig()

    @property
    def total_cells(self) -> int:
        return (
            len(_PROFILE_NAMES)
            * len(FAULT_WINDOWS)
            * len(_CRASH_NAMES)
            * len(STORE_CONFIGS)
            * len(ENGINES)
            * len(PROFILER_MODES)
        )

    def cell_at(self, grid_index: int) -> ChaosCell:
        """The cell at one grid position (axis order is fixed)."""
        total = self.total_cells
        if not 0 <= grid_index < total:
            raise EvaluationError(
                f"grid index {grid_index} outside [0, {total})"
            )
        idx = grid_index
        idx, mode_i = divmod(idx, len(PROFILER_MODES))
        idx, engine_i = divmod(idx, len(ENGINES))
        idx, store_i = divmod(idx, len(STORE_CONFIGS))
        idx, crash_i = divmod(idx, len(_CRASH_NAMES))
        idx, window_i = divmod(idx, len(FAULT_WINDOWS))
        profile_i = idx
        shards, batch = STORE_CONFIGS[store_i]
        start, end = FAULT_WINDOWS[window_i]
        cfg = self.config
        return ChaosCell(
            grid_index=grid_index,
            fault_profile=_PROFILE_NAMES[profile_i],
            start_minute=start,
            end_minute=end,
            crash_schedule=_CRASH_NAMES[crash_i],
            num_shards=shards,
            write_batch_size=batch,
            engine=ENGINES[engine_i],
            profiler_mode=PROFILER_MODES[mode_i],
            app=cfg.app,
            manager=cfg.manager,
            duration_minutes=cfg.duration_minutes,
            base_seed=cfg.base_seed,
            path_timeout_minutes=cfg.path_timeout_minutes,
        )

    def select(self, limit: Optional[int] = None) -> List[ChaosCell]:
        """Up to ``limit`` cells spread across *every* axis of the grid.

        A naive ``total // limit`` stride would walk only the outermost
        axis (the inner coordinates repeat with the stride's period), so
        the subset is generated with a golden-ratio step made coprime to
        the grid size: successive picks land far apart on every axis,
        and any ``limit`` up to ``total`` yields ``limit`` distinct
        cells.  Fully deterministic — same limit, same subset.
        """
        total = self.total_cells
        if limit is None or limit >= total:
            indices: List[int] = list(range(total))
        elif limit < 1:
            raise EvaluationError(f"cell limit must be >= 1, got {limit}")
        else:
            step = max(1, round(total * 0.6180339887))
            while math.gcd(step, total) != 1:
                step += 1
            indices = sorted((i * step) % total for i in range(limit))
        return [self.cell_at(i) for i in indices]

    def cell_by_id(self, cell_id: str) -> ChaosCell:
        """Regenerate a cell from its id, verifying the parameter digest.

        The digest check makes replay honest: an id minted by a sweep
        with different axis definitions or run-level parameters is
        rejected instead of silently replaying a *different* cell.
        """
        try:
            index_part, digest_part = cell_id.split("-", 1)
            grid_index = int(index_part)
        except ValueError:
            raise EvaluationError(
                f"malformed chaos cell id {cell_id!r} (expected '<index>-<digest>')"
            ) from None
        cell = self.cell_at(grid_index)
        expected = cell.cell_id
        if expected != f"{grid_index:03d}-{digest_part}":
            raise EvaluationError(
                f"cell id {cell_id!r} does not match this matrix (expected "
                f"{expected!r}); the id was minted with different matrix "
                "parameters (app/manager/duration/seed/path timeout) or axis definitions"
            )
        return cell
