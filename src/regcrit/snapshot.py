"""Velocity snapshot files.

Layout: one UTF-8 header line (a single-line JSON object with keys ``n``,
``length``, ``time``, ``components`` = "u1,u2,u3") terminated by a newline,
followed by 3*n^3 IEEE-754 doubles, little-endian, component-major (all of
u1, then u2, then u3), x index fastest within each component.

A sibling scalar layout (``components`` = "q", n^3 doubles) carries the
diagnostic pressure emitted by the report subcommand.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .spectral import Grid, RealScalarField, VelocityField

VELOCITY_COMPONENTS = "u1,u2,u3"


def _header(grid: Grid, time: float, components: str) -> bytes:
    obj = {
        "n": grid.n,
        "length": grid.length,
        "time": float(time),
        "components": components,
    }
    return (json.dumps(obj) + "\n").encode("utf-8")


def _flat(values: np.ndarray) -> np.ndarray:
    """The samples in file order, x index fastest, as little-endian doubles:
    one copy, which ``write`` takes as a buffer."""
    return np.ascontiguousarray(values.T, dtype="<f8")


def write_snapshot(path, field: VelocityField, time: float) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(field.grid, time, VELOCITY_COMPONENTS))
        for comp in field.values:
            fh.write(_flat(comp))


def write_scalar_snapshot(path, field: RealScalarField, time: float) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(field.grid, time, "q"))
        fh.write(_flat(field.values))


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


def read_snapshot(path, expected: Grid | None = None) -> tuple[VelocityField, float]:
    """The velocity field and time stored at ``path``.

    A header whose ``n`` is not an integer is a ValueError (:class:`Grid`
    rejects it), and so is a header grid other than ``expected``, when one
    is given.  Otherwise the field is on ``expected`` itself, so the
    snapshots of one run share its wavevector tables.  The payload is read
    once, into the array the field holds: its samples are a view in file
    order, x index fastest.
    """
    with open(path, "rb") as fh:
        head = _read_header(fh)
        if head.get("components") != VELOCITY_COMPONENTS:
            raise ValueError(f"not a velocity snapshot: {head.get('components')!r}")
        grid = Grid(head["n"], float(head["length"]))
        if expected is not None:
            if grid != expected:
                raise ValueError(
                    f"snapshot grid (n={grid.n}, length={grid.length!r}) is not the "
                    f"run's (n={expected.n}, length={expected.length!r})"
                )
            grid = expected
        n3 = grid.n**3
        want = 3 * n3 * 8
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have != want:
            kind = "truncated" if have < want else "oversized"
            raise ValueError(f"snapshot payload {kind}: {have} bytes, header implies {want}")
        data = np.empty(3 * n3, dtype="<f8")
        if fh.readinto(data) != want:
            raise ValueError("snapshot payload changed while it was read")
    # file order is (c, z, y, x) in C order; the view indexes [c, x, y, z]
    values = data.reshape((3,) + grid.shape).transpose(0, 3, 2, 1)
    return VelocityField(grid, values), float(head["time"])
