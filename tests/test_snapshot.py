"""Snapshot format: bit-exact round trip, header layout, storage order."""

import json

import numpy as np
import pytest

import reference
from regcrit import snapshot as snap
from regcrit.spectral import Grid, RealScalarField, SpectralVelocityField
from regcrit.solver import init_random_divfree


def zero_state(g):
    return SpectralVelocityField(g, np.zeros((3,) + g.kept_shape, dtype=complex))


def test_round_trip_bit_exact(tmp_path):
    g = Grid(16)
    state = init_random_divfree(g, 3, -2.0, 1.0)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, state, time=0.625)
    back, t = snap.read_snapshot(path)
    assert t == 0.625
    assert back.grid == g
    assert back.kept.tobytes() == state.kept.tobytes()
    assert json.loads(path.read_bytes().partition(b"\n")[0])["layout"] == "compact_cube"


def test_field_is_on_the_expected_grid(tmp_path):
    # verify reads every snapshot on the run's grid, so they share its tables
    g = Grid(8)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, zero_state(g), time=0.0)
    assert snap.read_snapshot(path, Grid(8))[0].grid == g
    assert snap.read_snapshot(path, g)[0].grid is g


def test_header_is_single_json_line(tmp_path):
    g = Grid(8)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, zero_state(g), time=0.0)
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8")
    obj = json.loads(header)
    assert obj == {
        "n": 8, "length": g.length, "time": 0.0, "components": "u1,u2,u3",
        "layout": "compact_cube",
    }


def test_component_major_compact_cube_c_order(tmp_path):
    g = Grid(8)  # m = 2: the compact cube is (5, 5, 3) per component
    kept = np.zeros((3,) + g.kept_shape, dtype=complex)
    for ix in range(5):
        for iy in range(5):
            for iz in range(3):
                kept[0, ix, iy, iz] = complex(ix + 10 * iy + 100 * iz, -1.0 - iz)
    kept[1] = -1.0
    kept[2] = -2.0j
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, SpectralVelocityField(g, kept), time=0.0)
    with open(path, "rb") as fh:
        fh.readline()
        payload = np.frombuffer(fh.read(), dtype="<f8")
    assert payload.size == 2 * 3 * 75
    # each coefficient is its real part, then its imaginary part, and the
    # kz index varies fastest within the first component
    np.testing.assert_array_equal(payload[:6], [0.0, -1.0, 100.0, -2.0, 200.0, -3.0])
    assert payload[2 * 3] == 10.0  # then ky
    assert payload[2 * 15] == 1.0  # then kx
    # component-major: u2 block follows all of u1
    assert payload[2 * 75] == -1.0 and payload[2 * 75 + 1] == 0.0
    assert payload[4 * 75] == 0.0 and payload[4 * 75 + 1] == -2.0


@pytest.mark.parametrize("n", [16, 22])
def test_payload_is_the_three_copy_encoding(tmp_path, n):
    # a velocity payload is the compact cube's real and imaginary parts,
    # interleaved as little-endian doubles in the cube's C order; a scalar
    # one is one copy that gives the bytes of a cast, an F-order ravel and
    # tobytes; signs of zeros included in both
    g = Grid(n)
    rng = np.random.default_rng(n)
    parts = rng.standard_normal((3,) + g.kept_shape + (2,))
    parts[rng.random(parts.shape) < 0.1] = -0.0
    parts[rng.random(parts.shape) < 0.1] = 0.0
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, SpectralVelocityField(g, parts.view(complex)[..., 0]), 0.25)
    header = snap._header(g, 0.25, "u1,u2,u3", layout="compact_cube")
    assert path.read_bytes() == header + parts.astype("<f8").tobytes()
    vals = rng.standard_normal((3,) + g.shape)
    vals[rng.random(vals.shape) < 0.1] = -0.0
    vals[rng.random(vals.shape) < 0.1] = 0.0
    scalar = tmp_path / "q.bin"
    snap.write_scalar_snapshot(scalar, RealScalarField(g, vals[1]), time=0.25)
    assert scalar.read_bytes() == snap._header(g, 0.25, "q") + reference.snapshot_payload(vals[1])


@pytest.mark.parametrize("n", [16, 32])
def test_read_holds_the_payload_once(tmp_path, n):
    # the payload is read into the compact cube the state holds, equal to
    # the written one bit for bit, and the read holds nothing beside it
    g = Grid(n)
    state = init_random_divfree(g, 3, -2.0, 1.0)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, state, time=0.5)
    m = g.kept_max
    payload = 3 * (2 * m + 1) ** 2 * (m + 1) * 16
    read = []
    peak = reference.traced_peak(lambda: read.append(snap.read_snapshot(path, g)))
    assert peak <= payload + 65536
    back, _ = read[0]
    assert back.kept.tobytes() == state.kept.tobytes()
    assert back.kept.base is None and back.kept.nbytes == payload


def test_truncated_payload_rejected(tmp_path):
    g = Grid(8)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, zero_state(g), time=0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        snap.read_snapshot(path)


def padded_header(g, size):
    """A velocity snapshot header of ``size`` bytes before its newline."""
    header = snap._header(g, 0.0, "u1,u2,u3", layout="compact_cube")[:-1]
    return header + b" " * (size - len(header))


def test_header_of_4096_bytes_reads(tmp_path):
    g = Grid(8)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, zero_state(g), time=0.0)
    payload = path.read_bytes().partition(b"\n")[2]
    path.write_bytes(padded_header(g, 4096) + b"\n" + payload)
    assert snap.read_snapshot(path, g)[0].kept.tobytes() == payload


def test_header_over_4096_bytes_rejected(tmp_path):
    g = Grid(8)
    path = tmp_path / "snap.bin"
    path.write_bytes(padded_header(g, 4097) + b"\n")
    with pytest.raises(ValueError, match="header too long"):
        snap.read_snapshot(path, g)


@pytest.mark.parametrize("size", [0, 40, 4096])
def test_header_without_newline_rejected(tmp_path, size):
    path = tmp_path / "snap.bin"
    path.write_bytes(padded_header(Grid(8), 4096)[:size])
    with pytest.raises(ValueError, match="header truncated"):
        snap.read_snapshot(path)


def rewrite_header(path, **changes):
    header, _, payload = path.read_bytes().partition(b"\n")
    head = dict(json.loads(header), **changes)
    path.write_bytes(json.dumps(head).encode() + b"\n" + payload)


@pytest.mark.parametrize("n", [16.7, 16.0, "16", True])
def test_non_integer_n_rejected(tmp_path, n):
    g = Grid(16)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, zero_state(g), time=0.0)
    rewrite_header(path, n=n)
    with pytest.raises(ValueError, match="not an integer"):
        snap.read_snapshot(path)


def test_grid_other_than_the_expected_rejected(tmp_path):
    g = Grid(8)
    path = tmp_path / "snap.bin"
    snap.write_snapshot(path, zero_state(g), time=0.0)
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


def test_sample_layout_rejected(tmp_path):
    # a snapshot of grid samples, x index fastest, with no layout key
    g = Grid(8)
    path = tmp_path / "snap.bin"
    samples = np.zeros((3,) + g.shape)
    path.write_bytes(
        snap._header(g, 0.0, "u1,u2,u3") + b"".join(map(reference.snapshot_payload, samples))
    )
    with pytest.raises(ValueError, match="layout None"):
        snap.read_snapshot(path, g)
