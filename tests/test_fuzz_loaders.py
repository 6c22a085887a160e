"""Hostile input for the file loaders, the hex challenge parser and the
config-file reader: each returns a valid value or raises ValueError."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tvwalk import chain as c
from tvwalk import cli
from tvwalk import gf2core as g


def _valid_files(tmp):
    """One saved GF2M and one saved lazy TVWK, as bytes."""
    traj, final = c.run(11, 40, seed=3, lazy=True)
    c.save_trajectory(tmp / "t.tvwk", traj)
    g.save_matrix(tmp / "m.gf2m", final)
    return (tmp / "m.gf2m").read_bytes(), (tmp / "t.tvwk").read_bytes()


def _check_load(loader, tmp, data: bytes):
    path = tmp / "fuzz.bin"
    path.write_bytes(data)
    try:
        obj = loader(path)
    except ValueError:
        return None
    if isinstance(obj, g.BitMatrix):
        g.BitMatrix(obj.n, obj.words)  # canonical words, n rows
    else:
        assert isinstance(obj, c.Trajectory)
        c.Trajectory(obj.n, obj.moves, obj.lazy)  # passes validation
        assert obj.moves.shape == (obj.steps, 2) and not obj.moves.flags.writeable
    return obj


def _edits(length: int):
    """A truncation point or a one-byte overwrite inside a file of `length`."""
    return st.one_of(
        st.tuples(st.just("cut"), st.integers(0, length - 1), st.just(0)),
        st.tuples(st.just("set"), st.integers(0, length - 1), st.integers(0, 255)),
    )


def _apply(data: bytes, edit) -> bytes:
    kind, at, value = edit
    if kind == "cut":
        return data[:at]
    return data[:at] + bytes([value]) + data[at + 1 :]


@given(st.binary(max_size=64), st.sampled_from([b"", b"GF2M", b"GF2M\x01", b"TVWK", b"TVWK\x01"]))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes(tmp_path_factory, data, prefix):
    tmp = tmp_path_factory.mktemp("fuzz")
    _check_load(g.load_matrix, tmp, prefix + data)
    _check_load(c.load_trajectory, tmp, prefix + data)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_edited_valid_files(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    matrix, traj = _valid_files(tmp)
    for loader, raw in ((g.load_matrix, matrix), (c.load_trajectory, traj)):
        edit = data.draw(_edits(len(raw)))
        got = _check_load(loader, tmp, _apply(raw, edit))
        if edit[0] == "cut":
            assert got is None  # every strict prefix is rejected


def test_unedited_files_load(tmp_path):
    matrix, traj = _valid_files(tmp_path)
    assert _check_load(g.load_matrix, tmp_path, matrix) is not None
    back = _check_load(c.load_trajectory, tmp_path, traj)
    assert back.lazy and np.array_equal(back.moves, c.run(11, 40, seed=3, lazy=True)[0].moves)


@given(
    st.one_of(st.text(max_size=40), st.text("0123456789abcdefABCDEF \t", max_size=40)),
    st.integers(1, 140),
)
@settings(max_examples=300, deadline=None)
def test_vector_from_hex(text, n):
    try:
        v = cli._vector_from_hex(text, n)
    except ValueError:
        return
    assert v.n == n
    g.BitVector(n, v.words)  # canonical padding
    assert cli._vector_to_hex(v) == bytes.fromhex(text).hex()


@given(st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode)))
@settings(max_examples=300, deadline=None)
def test_read_config_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes(data)
    try:
        pairs = cli._read_config_file(str(path))
    except ValueError:
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in pairs.items())
