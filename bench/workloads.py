"""The benchmark's workloads: what each one runs and why.

Every workload runs the same three commands, ``calibrate``, ``simulate`` and
``verify``, on the same physics; they differ in grid size and in how often
the monitors, the identity quadrature and the snapshots run, so that a
different layer dominates each one.  A workload lists the commands it runs
once before the timed repeats (``pre``) and in each repeat (``repeat``).
All commands of one run share one directory.
``fixture`` is a simulate of :data:`FIXTURE`, timed but not counted in
``sim_s_per_step``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: physics shared by every workload; at amplitude 20 the energy law fails
PHYSICS = {
    "fluid.mu": "0.05",
    "init.kind": "random_divfree",
    "init.amplitude": "5.0",
    "init.spectrum_slope": "-3.0",
    "time.dt": "0.01",
    "monitors.pairs": "6:4, 5:5",
    "calibration.p": "5,6",
}
DT = 0.01

#: a stride no run reaches, so only the forced samples (step 0, final) happen
NEVER = 1_000_000

CALIB_DIR = "calib"
RUN_DIR = "run"
FIXTURE_DIR = "fixture"

#: command -> config file it reads; "fixture" is a simulate of FIXTURE and
#: "setup" only sets up (see child.py)
CONFIGS = {
    "calibrate": "calibrate.cfg",
    "simulate": "simulate.cfg",
    "fixture": "fixture.cfg",
    "verify": "simulate.cfg",
    "setup": "simulate.cfg",
}


@dataclass(frozen=True)
class Shape:
    """Step count and strides of one simulate run."""

    steps: int
    monitor_stride: int
    identity_stride: int
    snapshot_stride: int

    def _forced(self, stride: int) -> int:
        """Steps 0, every ``stride``-th and the final step."""
        return self.steps // stride + 1 + (self.steps % stride != 0)

    @property
    def samples(self) -> int:
        return self._forced(self.monitor_stride)

    @property
    def snapshots(self) -> int:
        return self._forced(self.snapshot_stride)

    @property
    def identity_samples(self) -> int:
        """Monitor samples that run the identity quadrature (step 0 always does)."""
        sampled = set(range(0, self.steps + 1, self.monitor_stride)) | {self.steps}
        return sum(1 for i in sampled if i % self.identity_stride == 0 or i == self.steps)

    @property
    def dense(self) -> bool:
        """Monitors every step.  The energy law (verify's and the bench's) is
        a trapezoid rule over the monitor samples held to ENERGY_TOL, so it
        only holds on dense samples."""
        return self.monitor_stride == 1


#: one step with monitors and identity at both samples: the run ``verify``
#: reads on a workload whose own simulate samples too sparsely for it
FIXTURE = Shape(steps=1, monitor_stride=1, identity_stride=1, snapshot_stride=NEVER)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    shape: Shape
    fields: int  # calibration corpus size
    pre: tuple[str, ...]
    repeat: tuple[str, ...]

    def commands(self) -> tuple[str, ...]:
        return self.pre + self.repeat

    @property
    def verified(self) -> tuple[str, Shape]:
        """Directory and shape of the run that ``verify`` reads."""
        if "fixture" in self.commands():
            return FIXTURE_DIR, FIXTURE
        return RUN_DIR, self.shape


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="step-n64",
            why=(
                "RK4 loop and its 15-FFT nonlinear term dominate at n=64; monitors "
                "run every 10 steps and the identity only at the forced samples"
            ),
            n=64,
            shape=Shape(steps=20, monitor_stride=10, identity_stride=NEVER, snapshot_stride=NEVER),
            fields=4,
            pre=("calibrate", "fixture"),
            repeat=("simulate", "verify"),
        ),
        Workload(
            name="monitor-n32",
            why=(
                "in-cache n=32 with monitors, identity and Gronwall every step: "
                "criteria and per-call Python overhead dominate"
            ),
            n=32,
            shape=Shape(steps=50, monitor_stride=1, identity_stride=1, snapshot_stride=10),
            fields=16,
            pre=(),
            repeat=("calibrate", "simulate", "verify"),
        ),
        Workload(
            name="verify-n96",
            why=(
                "verify re-runs the identity and the Hoelder check per p on n=96 "
                "snapshots read from disk; memory near 1 GB"
            ),
            n=96,
            shape=FIXTURE,
            fields=2,
            pre=("calibrate", "simulate"),
            repeat=("verify",),
        ),
    )
}


def _config_text(values: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _shape_keys(shape: Shape) -> dict[str, str]:
    return {
        "time.t_end": repr(shape.steps * DT),
        "monitors.stride": str(shape.monitor_stride),
        "monitors.identity_stride": str(shape.identity_stride),
        "snapshots.stride": str(shape.snapshot_stride),
    }


def write_configs(w: Workload, seed: int, workdir: str, n: int | None = None) -> None:
    """Write the configs of one run into ``workdir``.

    The seed picks the simulated field (``init.seed``) and, disjoint from it,
    the calibration corpus.  ``n`` overrides the grid size (smoke tests).
    """
    os.makedirs(workdir, exist_ok=True)
    common = dict(
        PHYSICS,
        **{
            "grid.n": str(n or w.n),
            "init.seed": str(seed),
            "calibration.seeds": f"{seed + 1}..{seed + w.fields}",
        },
    )
    calibrated = {"monitors.calibration": f"{CALIB_DIR}/calibration.txt"}
    files = {
        "calibrate": dict(common, **_shape_keys(w.shape), **{"output.dir": CALIB_DIR}),
        "simulate": dict(common, **_shape_keys(w.shape), **calibrated, **{"output.dir": RUN_DIR}),
        "fixture": dict(common, **_shape_keys(FIXTURE), **calibrated, **{"output.dir": FIXTURE_DIR}),
    }
    for command, values in files.items():
        with open(os.path.join(workdir, CONFIGS[command]), "w", encoding="utf-8") as fh:
            fh.write(_config_text(values))
