"""The transvection random walk: recorded runs and their replay.

One step picks an ordered pair of distinct rows (i, j) uniformly among the
n(n-1) choices and adds row j to row i modulo 2.  The lazy variant first
flips a fair coin and holds in place with probability 1/2.  A run records
its move sequence as a Trajectory: the (t, 2) uint16 records of a TVWK
file, (0xFFFF, 0xFFFF) for a held step, in memory as on disk.  It replays
deterministically, and is the secret in the authentication protocol.  Runs,
replays and the protocol's honest responder pass it to one kernel, which
skips held steps and XORs Python-int rows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gf2core import BitMatrix, _from_row_bytes, derive_rng

__all__ = [
    "Trajectory",
    "run",
    "replay",
    "save_trajectory",
    "load_trajectory",
    "STREAM_WALK",
]

# Stream tag for run(); other modules use their own tags so that no two
# consumers ever share a generator.
STREAM_WALK = 1

_TRAJ_MAGIC = b"TVWK"
_TRAJ_VERSION = 1
_TRAJ_HEADER = struct.Struct("<4sBIQB")  # magic, version, n, step count, lazy flag
_HOLD = 0xFFFF  # both columns of a held lazy step, in memory and in a TVWK record
_MAX_N = _HOLD - 1  # largest n whose rows fit a TVWK record's u16 fields
# Steps that `_apply_moves` masks for holds and turns into Python ints at a
# time, and the most 32-bit words `_lazy_moves` draws and turns into Python
# ints at a time: a chunk's object array and list are 32 KiB each, below
# glibc's default 128 KiB mmap threshold, so a replay or lazy run reuses heap
# memory, not fresh pages, and holds no list or mask as long as the run.
_MOVE_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A recorded run: dimension, moves, and laziness.

    ``moves`` holds what a TVWK file holds: a read-only (t, 2) uint16 array
    with one (i, j) record per step, and (_HOLD, _HOLD) for a held lazy step.
    Replaying the non-held moves from the identity reproduces the final
    state bit for bit.  The moves given are checked and always copied, so
    no caller can change them later.
    """

    n: int
    moves: np.ndarray
    lazy: bool = False

    def __post_init__(self) -> None:
        moves = np.asarray(self.moves)
        if moves.size == 0:
            moves = np.empty((0, 2), dtype=np.uint16)
        elif moves.dtype.kind not in "iu" or moves.min() < 0 or moves.max() > _HOLD:
            raise ValueError(f"moves must be integers in 0..{_HOLD}")
        if moves.ndim != 2 or moves.shape[1] != 2:
            raise ValueError("moves must be a (t, 2) array of row pairs")
        moves = moves.astype(np.uint16, order="C")
        i, j = moves[:, 0], moves[:, 1]
        held = (i == _HOLD) & (j == _HOLD)
        if held.any() and not self.lazy:
            raise ValueError("held step in a non-lazy trajectory")
        rows = min(self.n, _HOLD)  # past n = 0xFFFF a row 0xFFFF would spell half a hold
        if not (held | (i != j) & (i < rows) & (j < rows)).all():
            raise ValueError("each move needs two distinct rows in 0..n-1")
        moves.flags.writeable = False
        object.__setattr__(self, "moves", moves)

    @property
    def steps(self) -> int:
        return len(self.moves)

    @property
    def work_steps(self) -> int:
        """Number of non-held moves; the honest responder's bit-op cost."""
        return int(np.count_nonzero(self.moves[:, 0] != _HOLD)) if self.lazy else self.steps


def _decode(u: np.ndarray, n: int, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws u in [0, n(n-1)) as the row arrays (i, j) of their pairs.

    u maps to i = u // (n-1) and j = u mod (n-1), shifted past the diagonal
    gap when j is at least i; the map is a bijection onto the ordered pairs
    i != j.  Every consumer of pair draws, here and in the diagnostics'
    batched walks, decodes them with this function.  Lazy walks draw u from
    `_words32`; non-lazy pair draws, ``standard_normal``, ``binomial`` and the
    sampler's uint64 words still come from Generator methods.  ``out=(i, j)``
    names two integer arrays of u's shape, such as the uint16 columns of a
    move array, to decode into; they may be narrower than u, and are returned.
    """
    i, j = np.divmod(u, n - 1, out=out or (None, None), casting="unsafe")
    j += j >= i
    return i, j


def _words32(rng: np.random.Generator, size: int) -> np.ndarray:
    """The next `size` words of the generator's 32-bit stream, as uint32: a
    buffered half word, whole ``random_raw`` outputs (low half first), then
    the last one or two words from NumPy's own 32-bit draws, which leave
    ``has_uint32`` and ``uinteger`` as single draws do; nothing writes the state.
    MT19937, whose 32-bit draws buffer no half word, is rejected before any draw."""
    bg = rng.bit_generator
    state = bg.state
    if "has_uint32" not in state:
        raise ValueError(f"lazy draws need a 64-bit bit generator, not {type(bg).__name__}")
    head = min(size, state["has_uint32"])
    tail = min(size - head, 2 - (size - head) % 2)
    stream = partial(rng.integers, 0, 2**32, dtype=np.uint32)
    words = [stream(1)] if head else []
    words += [bg.random_raw((size - head - tail) // 2).astype("<u8", copy=False).view("<u4")]
    return np.concatenate([*words, stream(tail)])


def _redraw_below(bound: int) -> int:
    """2**32 mod bound: a 32-bit draw below `bound` redraws w while w*bound % 2**32 < it."""
    if not 0 < bound < 2**32:  # NumPy draws larger bounds from 64-bit words
        raise ValueError(f"a 32-bit bounded draw needs a bound in 1..2**32-1 (got {bound})")
    return 2**32 % bound


def _pair_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row tables (i, j) of every pair draw u in [0, n(n-1)), decoded once: the
    one move table, whose move u adds row j(u) to row i(u), of the walk graph."""
    return _decode(np.arange(n * (n - 1)), n)


def draw_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """Uniform ordered pair (i, j), i != j, from one draw, without rejection:
    the scalar oracle that the tests hold `run`'s batched draws to."""
    if n < 2:
        raise ValueError("need n >= 2 to pick two distinct rows")
    i, j = _decode(rng.integers(0, n * (n - 1), size=1), n)
    return int(i[0]), int(j[0])


def _apply_moves(rows: list, traj: Trajectory) -> None:
    """The move kernel: rows[i] ^= rows[j] for each non-held move (i, j) of traj, in order.

    ``rows`` holds Python ints: n-bit rows of a matrix, or single bits of a
    vector.  Each `_MOVE_CHUNK` steps turn their index columns into lists by
    a gather from an object array of the row indices, so the entries are the
    same n ints, not fresh ones, and no list spans the whole run.  A lazy
    chunk first drops its held rows, by a mask over its first column.
    """
    index = np.arange(len(rows)).astype(object)
    for start in range(0, traj.steps, _MOVE_CHUNK):
        part = traj.moves[start : start + _MOVE_CHUNK]
        if traj.lazy:
            part = part[part[:, 0] != _HOLD]
        for a, b in zip(index[part[:, 0]].tolist(), index[part[:, 1]].tolist()):
            rows[a] ^= rows[b]


def _endpoint(traj: Trajectory) -> BitMatrix:
    """Identity with the trajectory's non-held moves applied, as packed words."""
    n = traj.n
    rows = [1 << r for r in range(n)]
    _apply_moves(rows, traj)
    nbytes = (n + 7) // 8
    raw = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    return BitMatrix(n, _from_row_bytes(np.frombuffer(raw, dtype=np.uint8).reshape(n, nbytes), n))


def _lazy_moves(rng: np.random.Generator, npairs: int, t: int):
    """The moving steps of t lazy steps and their pair draws, as lists, a batch
    of at most `_MOVE_CHUNK` words at a time.

    Each step draws a coin, ``rng.integers(0, 2)``, and when it is 0 a pair,
    ``rng.integers(0, npairs)``.  Both are bounded draws from 32-bit words w:
    the coin is w >> 31, and the pair is m >> 32 for m = w * npairs, with w
    skipped while m mod 2**32 < 2**32 mod npairs (Lemire).  A `_words32` batch
    has at most a word per step to go, each step taking one or more, so none
    is extra; `_words32` gives the same stream however its calls are split.
    Each batch's (steps, draws) is yielded before the next batch is drawn.
    """
    if t == 0:  # before the bound check: a 1 x 1 walk has no pairs to draw from
        return
    threshold = _redraw_below(npairs)
    s, moving = 0, False
    while s < t:
        steps, draws = [], []
        for w in _words32(rng, min(t - s, _MOVE_CHUNK)).tolist():
            if moving:
                m = w * npairs
                if m & 0xFFFFFFFF >= threshold:
                    steps.append(s)
                    draws.append(m >> 32)
                    s += 1
                    moving = False
            elif w >> 31:
                s += 1
            else:
                moving = True
        yield steps, draws


def run(n: int, t: int, seed: int, lazy: bool = False) -> tuple[Trajectory, BitMatrix]:
    """Run the walk for t steps from the identity.

    Fully deterministic in (n, t, seed, lazy).  A non-lazy run draws all t
    pairs in one batch.  When lazy, each step first flips a fair coin and
    holds with probability 1/2; a held step records (_HOLD, _HOLD) and leaves
    the state unchanged.  Lazy draws are parsed from batches of 32-bit words by
    `_lazy_moves`, with the values and final state of per-step draws.  n is
    at most 65,534, which keeps n(n-1) < 2**32 and the moves TVWK records.
    """
    if t < 0:
        raise ValueError("step count must be non-negative")
    if n > _MAX_N or n < 2 and t > 0:
        raise ValueError(f"need 2 <= n <= {_MAX_N}, for distinct rows and TVWK records (got {n})")
    rng = derive_rng(seed, STREAM_WALK)
    if not lazy:
        moves = np.empty((t, 2), dtype=np.uint16)
        _decode(rng.integers(0, n * (n - 1), size=t), n, out=(moves[:, 0], moves[:, 1]))
    else:
        moves = np.full((t, 2), _HOLD, dtype=np.uint16)
        for steps, draws in _lazy_moves(rng, n * (n - 1), t):
            moves[steps] = np.stack(_decode(np.array(draws, dtype=np.int64), n), axis=1)
    traj = Trajectory(n, moves, lazy)
    return traj, _endpoint(traj)


def replay(traj: Trajectory) -> BitMatrix:
    """Apply the recorded moves to the identity; held steps are skipped."""
    return _endpoint(traj)


def save_trajectory(path, traj: Trajectory) -> None:
    """Write a trajectory in the binary format TVWK v1.

    Layout: magic "TVWK", version 0x01, n (u32 LE), step count (u64 LE),
    laziness flag (u8), then one (i: u16 LE, j: u16 LE) record per step;
    held steps are stored as (0xFFFF, 0xFFFF).
    """
    if traj.n > _MAX_N:
        raise ValueError("dimension exceeds the u16 move encoding")
    with open(path, "wb") as fh:
        fh.write(_TRAJ_HEADER.pack(_TRAJ_MAGIC, _TRAJ_VERSION, traj.n, traj.steps, traj.lazy))
        fh.write(np.ascontiguousarray(traj.moves, dtype="<u2"))


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by save_trajectory; validates the header.

    The records become the moves as they are; the master seed is not stored,
    since the moves alone determine the replay.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _TRAJ_MAGIC:
        raise ValueError("not a TVWK file")
    if len(raw) < _TRAJ_HEADER.size:
        raise ValueError("truncated TVWK header")
    _, version, n, t, lazy = _TRAJ_HEADER.unpack_from(raw)
    if version != _TRAJ_VERSION:
        raise ValueError(f"unsupported TVWK version {version}")
    if lazy > 1:
        raise ValueError(f"TVWK lazy flag must be 0 or 1 (got {lazy})")
    if len(raw) - _TRAJ_HEADER.size != 4 * t:
        raise ValueError("TVWK payload length mismatch")
    moves = np.frombuffer(raw, "<u2", offset=_TRAJ_HEADER.size).reshape(t, 2)
    return Trajectory(n, moves, bool(lazy))
