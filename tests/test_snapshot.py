"""Snapshot format: bit-exact round trip, header layout, storage order."""

import json

import numpy as np
import pytest

import reference
from regcrit import snapshot as snap
from regcrit.spectral import Grid, RealScalarField, VelocityField
from regcrit.solver import init_random_divfree
from regcrit.spectral import to_physical


def test_round_trip_bit_exact(tmp_path):
    g = Grid(16)
    field = to_physical(init_random_divfree(g, 3, -2.0, 1.0))
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, field, time=0.625)
    back, t = snap.read_snapshot(path)
    assert t == 0.625
    assert back.grid == g
    assert np.array_equal(back.values, field.values)


def test_field_is_on_the_expected_grid(tmp_path):
    # verify reads every snapshot on the run's grid, so they share its tables
    g = Grid(8)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, VelocityField(g, np.ones((3,) + g.shape)), time=0.0)
    assert snap.read_snapshot(path, Grid(8))[0].grid == g
    assert snap.read_snapshot(path, g)[0].grid is g


def test_header_is_single_json_line(tmp_path):
    g = Grid(8)
    field = VelocityField(g, np.zeros((3,) + g.shape))
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, field, time=0.0)
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8")
    obj = json.loads(header)
    assert obj == {"n": 8, "length": g.length, "time": 0.0, "components": "u1,u2,u3"}


def test_component_major_x_fastest(tmp_path):
    g = Grid(4)
    vals = np.zeros((3,) + g.shape)
    for ix in range(4):
        for iy in range(4):
            for iz in range(4):
                vals[0, ix, iy, iz] = ix + 10 * iy + 100 * iz
    vals[1] = -1.0
    vals[2] = -2.0
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, VelocityField(g, vals), time=0.0)
    with open(path, "rb") as fh:
        fh.readline()
        payload = np.frombuffer(fh.read(), dtype="<f8")
    assert payload.size == 3 * 64
    # x index varies fastest within the first component
    np.testing.assert_array_equal(payload[:4], [0.0, 1.0, 2.0, 3.0])
    assert payload[4] == 10.0  # then y
    assert payload[16] == 100.0  # then z
    # component-major: u2 block follows all of u1
    assert payload[64] == -1.0
    assert payload[128] == -2.0


@pytest.mark.parametrize("n", [16, 22])
def test_payload_is_the_three_copy_encoding(tmp_path, n):
    # one copy per component gives the bytes of a cast, an F-order ravel and
    # tobytes, signs of zeros included
    g = Grid(n)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((3,) + g.shape)
    vals[rng.random(vals.shape) < 0.1] = -0.0
    vals[rng.random(vals.shape) < 0.1] = 0.0
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, VelocityField(g, vals), time=0.25)
    payload = b"".join(reference.snapshot_payload(c) for c in vals)
    assert path.read_bytes() == snap._header(g, 0.25, "u1,u2,u3") + payload
    scalar = tmp_path / "q.bin"
    snap.write_scalar_snapshot(scalar, RealScalarField(g, vals[1]), time=0.25)
    assert scalar.read_bytes() == snap._header(g, 0.25, "q") + reference.snapshot_payload(vals[1])


@pytest.mark.parametrize("n", [16, 32])
def test_read_holds_the_payload_once(tmp_path, n):
    # the payload is read into the array the field holds, whose samples are
    # a view in file order with the x index fastest, equal to the written
    # ones bit for bit; beside it the read holds only the finiteness check's
    # booleans, an eighth of the payload
    g = Grid(n)
    field = to_physical(init_random_divfree(g, 3, -2.0, 1.0))
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, field, time=0.5)
    payload = 3 * n**3 * 8
    read = []
    peak = reference.traced_peak(lambda: read.append(snap.read_snapshot(path, g)))
    assert peak <= 1.25 * payload + 65536
    back, _ = read[0]
    assert back.values.tobytes() == field.values.tobytes()
    assert back.values.base is not None and back.values.base.nbytes == payload
    assert back.values.strides == (n**3 * 8, 8, n * 8, n * n * 8)


def test_truncated_payload_rejected(tmp_path):
    g = Grid(8)
    field = VelocityField(g, np.zeros((3,) + g.shape))
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, field, time=0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        snap.read_snapshot(path)


def rewrite_header(path, **changes):
    header, _, payload = path.read_bytes().partition(b"\n")
    head = dict(json.loads(header), **changes)
    path.write_bytes(json.dumps(head).encode() + b"\n" + payload)


@pytest.mark.parametrize("n", [16.7, 16.0, "16", True])
def test_non_integer_n_rejected(tmp_path, n):
    g = Grid(16)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, VelocityField(g, np.zeros((3,) + g.shape)), time=0.0)
    rewrite_header(path, n=n)
    with pytest.raises(ValueError, match="not an integer"):
        snap.read_snapshot(path)


def test_grid_other_than_the_expected_rejected(tmp_path):
    g = Grid(8)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, VelocityField(g, np.zeros((3,) + g.shape)), time=0.0)
    assert snap.read_snapshot(path, g)[0].grid == g
    with pytest.raises(ValueError, match="not the run's"):
        snap.read_snapshot(path, Grid(8, 2.0))
    rewrite_header(path, length=float("inf"))
    with pytest.raises(ValueError, match="finite"):
        snap.read_snapshot(path)


def test_scalar_snapshot_layout(tmp_path):
    from regcrit.spectral import RealScalarField

    g = Grid(4)
    q = RealScalarField(g, np.arange(64, dtype=float).reshape(g.shape))
    path = tmp_path / "pressure.bin"
    snap.write_scalar_snapshot(path, q, time=1.5)
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        payload = np.frombuffer(fh.read(), dtype="<f8")
    assert head["components"] == "q"
    assert payload.size == 64
    np.testing.assert_array_equal(
        payload.reshape(g.shape, order="F"), q.values
    )
