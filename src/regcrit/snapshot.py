"""Velocity snapshot files.

Layout: one UTF-8 header line (a single-line JSON object with keys ``n``,
``length``, ``time``, ``components`` = "u1,u2,u3", ``layout`` =
"compact_cube") terminated by a newline, followed by the state stepped, its
compact cube ``SpectralVelocityField.kept``: shape (3, 2m+1, 2m+1, m+1),
m = (n - 1) // 3, complex128 little-endian, in the cube's C order.  A file
without that ``layout``, such as one of grid samples, is no velocity snapshot.

A sibling scalar layout (``components`` = "q", no ``layout``, n^3 doubles,
little-endian, x index fastest) carries the diagnostic pressure emitted by
the report subcommand.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .spectral import Grid, RealScalarField, SpectralVelocityField

VELOCITY_COMPONENTS = "u1,u2,u3"
VELOCITY_LAYOUT = "compact_cube"


def _header(grid: Grid, time: float, components: str, **extra) -> bytes:
    obj = dict(n=grid.n, length=grid.length, time=float(time), components=components, **extra)
    return (json.dumps(obj) + "\n").encode("utf-8")


def write_snapshot(path, field: SpectralVelocityField, time: float) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(field.grid, time, VELOCITY_COMPONENTS, layout=VELOCITY_LAYOUT))
        fh.write(np.ascontiguousarray(field.kept, dtype="<c16"))


def write_scalar_snapshot(path, field: RealScalarField, time: float) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(field.grid, time, "q"))
        # the samples in file order, x index fastest: one copy, which write
        # takes as a buffer
        fh.write(np.ascontiguousarray(field.values.T, dtype="<f8"))


def _read_header(fh) -> dict:
    raw = bytearray()
    while True:
        b = fh.read(1)
        if not b:
            raise ValueError("snapshot header truncated")
        if b == b"\n":
            break
        raw.extend(b)
        if len(raw) > 4096:
            raise ValueError("snapshot header too long")
    head = json.loads(raw.decode("utf-8"))
    if not isinstance(head, dict):
        raise ValueError("snapshot header is not a JSON object")
    return head


def read_snapshot(path, expected: Grid | None = None) -> tuple[SpectralVelocityField, float]:
    """The state and time stored at ``path``.

    A header whose ``n`` is not an integer is a ValueError (:class:`Grid`
    rejects it), and so is a header grid other than ``expected``, when one
    is given, or a ``layout`` other than the compact cube's.  Otherwise the
    state is on ``expected`` itself, so the snapshots of one run share its
    wavevector tables.  The payload is read once, into the compact cube the
    state holds, and its values are not checked.
    """
    with open(path, "rb") as fh:
        head = _read_header(fh)
        if head.get("components") != VELOCITY_COMPONENTS:
            raise ValueError(f"not a velocity snapshot: {head.get('components')!r}")
        if head.get("layout") != VELOCITY_LAYOUT:
            raise ValueError(f"snapshot layout {head.get('layout')!r} is not {VELOCITY_LAYOUT!r}")
        grid = Grid(head["n"], float(head["length"]))
        if expected is not None:
            if grid != expected:
                raise ValueError(
                    f"snapshot grid (n={grid.n}, length={grid.length!r}) is not the "
                    f"run's (n={expected.n}, length={expected.length!r})"
                )
            grid = expected
        shape = (3,) + grid.kept_shape
        want = math.prod(shape) * 16
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have != want:
            kind = "truncated" if have < want else "oversized"
            raise ValueError(f"snapshot payload {kind}: {have} bytes, header implies {want}")
        kept = np.empty(shape, dtype="<c16")
        if fh.readinto(kept) != want:
            raise ValueError("snapshot payload changed while it was read")
    return SpectralVelocityField(grid, kept), float(head["time"])
