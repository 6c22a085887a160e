"""The transvection random walk: single steps, recorded runs, projections.

One step picks an ordered pair of distinct rows (i, j) uniformly among the
n(n-1) choices and adds row j to row i modulo 2.  The lazy variant first
flips a fair coin and holds in place with probability 1/2.  A run records
its move sequence as a Trajectory, a (t, 2) array of row pairs, which
replays deterministically; the trajectory is the secret in the
authentication protocol.  Runs, replays and the protocol's honest
responder all apply moves through one kernel that XORs Python-int rows.

The projection onto the first k columns of the state is itself a Markov
chain (the same row operations restricted to a slice); for k = 1 it is the
vector chain used by the cutoff diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2core import WORD_BITS, BitMatrix, Transvection, derive_rng

__all__ = [
    "Trajectory",
    "ProjectionState",
    "draw_pair",
    "step",
    "run",
    "replay",
    "step_projection",
    "projection_from_identity",
    "save_trajectory",
    "load_trajectory",
    "STREAM_WALK",
]

# Stream tag for run(); other modules use their own tags so that no two
# consumers ever share a generator.
STREAM_WALK = 1

_TRAJ_MAGIC = b"TVWK"
_TRAJ_VERSION = 1
_TRAJ_HEADER = 18  # magic, version, n (u32), step count (u64), lazy flag
_HOLD = -1  # both columns of a held lazy step
_HOLD_RECORD = 0xFFFF  # both u16 fields of a held step in a TVWK file


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A recorded run: dimension, master seed, moves, and laziness.

    ``moves`` is a read-only (t, 2) int64 array with one (i, j) row per
    step; a held lazy step is the row (-1, -1).  Replaying the applied
    moves from the identity reproduces the final state bit for bit.
    """

    n: int
    seed: int
    moves: np.ndarray
    lazy: bool = False

    def __post_init__(self) -> None:
        moves = np.array(self.moves, dtype=np.int64)
        if moves.size == 0:
            moves = moves.reshape(0, 2)
        if moves.ndim != 2 or moves.shape[1] != 2:
            raise ValueError("moves must be a (t, 2) array of row pairs")
        held = (moves == _HOLD).all(axis=1)
        if held.any() and not self.lazy:
            raise ValueError("held step in a non-lazy trajectory")
        live = moves[~held]
        if ((live < 0) | (live >= self.n)).any() or (live[:, 0] == live[:, 1]).any():
            raise ValueError("each move needs two distinct rows in 0..n-1")
        moves.flags.writeable = False
        object.__setattr__(self, "moves", moves)

    @property
    def steps(self) -> int:
        return len(self.moves)

    def applied(self) -> np.ndarray:
        """The (work_steps, 2) moves that are not held, in order."""
        return self.moves[self.moves[:, 0] != _HOLD] if self.lazy else self.moves

    @property
    def work_steps(self) -> int:
        """Number of non-held moves; the honest responder's bit-op cost."""
        return len(self.applied())


@dataclass
class ProjectionState:
    """First k columns of a walk state: n rows of k bits, word-packed."""

    n: int
    k: int
    cols: np.ndarray = field(repr=False)  # (n, ceil(k/64)) uint64

    def to_bits(self) -> np.ndarray:
        raw = np.unpackbits(self.cols.view(np.uint8), axis=1, bitorder="little")
        return raw[:, : self.k]


def _decode_pairs(u: np.ndarray, n: int) -> np.ndarray:
    """Uniform draws u in [0, n(n-1)) as a (len(u), 2) array of pairs.

    u maps to i = u // (n-1) and j = u mod (n-1), shifted past the diagonal
    gap when j >= i; the map is a bijection onto the ordered pairs i != j.
    """
    i, j = np.divmod(u, n - 1)
    j += j >= i
    return np.stack((i, j), axis=1)


def draw_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """Uniform ordered pair (i, j), i != j, from one draw, without rejection.

    A batch of t draws consumes the generator exactly like t calls here, so
    run() reproduces this scalar stream.
    """
    if n < 2:
        raise ValueError("need n >= 2 to pick two distinct rows")
    return tuple(_decode_pairs(rng.integers(0, n * (n - 1), size=1), n)[0].tolist())


def _apply_moves(rows: list, i: np.ndarray, j: np.ndarray) -> None:
    """The move kernel: rows[i[s]] ^= rows[j[s]] for each step s in order.

    ``rows`` holds Python ints: n-bit rows of a matrix, or single bits of a
    vector.  Columns go through tolist() one at a time, which is much
    cheaper than tolist() on the (t, 2) array.
    """
    for a, b in zip(i.tolist(), j.tolist()):
        rows[a] ^= rows[b]


def _endpoint(n: int, moves: np.ndarray) -> BitMatrix:
    """Identity with the given non-held moves applied, as packed words."""
    rows = [1 << r for r in range(n)]
    _apply_moves(rows, moves[:, 0], moves[:, 1])
    w = (n + WORD_BITS - 1) // WORD_BITS
    raw = b"".join(r.to_bytes(8 * w, "little") for r in rows)
    return BitMatrix(n, np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(n, w))


def step(x: BitMatrix, rng: np.random.Generator) -> tuple[BitMatrix, Transvection]:
    """One walk step from x; returns the new state and the move used."""
    i, j = draw_pair(rng, x.n)
    words = x.words.copy()
    words[i] ^= words[j]
    return BitMatrix(x.n, words), Transvection(i, j)


def run(n: int, t: int, seed: int, lazy: bool = False) -> tuple[Trajectory, BitMatrix]:
    """Run the walk for t steps from the identity.

    Fully deterministic in (n, t, seed, lazy).  A non-lazy run draws all t
    pairs in one batch.  When lazy, each step first flips a fair coin and
    holds with probability 1/2; a held step records (-1, -1) and leaves the
    state unchanged.
    """
    if t < 0:
        raise ValueError("step count must be non-negative")
    if n < 2 and t > 0:
        raise ValueError("need n >= 2 to pick two distinct rows")
    rng = derive_rng(seed, STREAM_WALK)
    if not lazy:
        moves = _decode_pairs(rng.integers(0, n * (n - 1), size=t), n)
    else:  # a coin, then a pair draw when the coin says move
        steps, draws = [], []
        for s in range(t):
            if not int(rng.integers(0, 2)):
                steps.append(s)
                draws.append(int(rng.integers(0, n * (n - 1))))
        moves = np.full((t, 2), _HOLD, dtype=np.int64)
        moves[steps] = _decode_pairs(np.array(draws, dtype=np.int64), n)
    traj = Trajectory(n, seed, moves, lazy)
    return traj, _endpoint(n, traj.applied())


def replay(traj: Trajectory) -> BitMatrix:
    """Apply the recorded moves to the identity; held steps are skipped."""
    return _endpoint(traj.n, traj.applied())


def projection_from_identity(n: int, k: int) -> ProjectionState:
    """Projection of the identity start: row i carries bit i when i < k."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    w = (k + WORD_BITS - 1) // WORD_BITS
    cols = np.zeros((n, w), dtype=np.uint64)
    idx = np.arange(k)
    cols[idx, idx // WORD_BITS] = np.uint64(1) << (idx % WORD_BITS).astype(np.uint64)
    return ProjectionState(n, k, cols)


def step_projection(s: ProjectionState, rng: np.random.Generator) -> ProjectionState:
    """One walk step on the k-column slice: row_i <- row_i XOR row_j.

    Identical in law to projecting a full-matrix step; with the same
    generator it consumes the same single draw, so k = n reproduces step()
    exactly.
    """
    i, j = draw_pair(rng, s.n)
    cols = s.cols.copy()
    cols[i] ^= cols[j]
    return ProjectionState(s.n, s.k, cols)


def save_trajectory(path, traj: Trajectory) -> None:
    """Write a trajectory in the binary format TVWK v1.

    Layout: magic "TVWK", version 0x01, n (u32 LE), step count (u64 LE),
    laziness flag (u8), then one (i: u16 LE, j: u16 LE) record per step;
    held steps are stored as (0xFFFF, 0xFFFF).
    """
    if traj.n > 0xFFFE:
        raise ValueError("dimension exceeds the u16 move encoding")
    header = (
        _TRAJ_MAGIC
        + bytes([_TRAJ_VERSION])
        + traj.n.to_bytes(4, "little")
        + traj.steps.to_bytes(8, "little")
        + bytes([1 if traj.lazy else 0])
    )
    records = np.where(traj.moves == _HOLD, _HOLD_RECORD, traj.moves).astype("<u2")
    with open(path, "wb") as fh:
        fh.write(header + records.tobytes())


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by save_trajectory; validates the header.

    The seed is not stored in the file (the moves alone determine the
    replay); loaded trajectories carry seed 0.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _TRAJ_MAGIC:
        raise ValueError("not a TVWK file")
    if len(raw) < _TRAJ_HEADER:
        raise ValueError("truncated TVWK header")
    if raw[4] != _TRAJ_VERSION:
        raise ValueError(f"unsupported TVWK version {raw[4]}")
    if raw[17] > 1:
        raise ValueError(f"TVWK lazy flag must be 0 or 1 (got {raw[17]})")
    n = int.from_bytes(raw[5:9], "little")
    t = int.from_bytes(raw[9:17], "little")
    if len(raw) - _TRAJ_HEADER != 4 * t:
        raise ValueError("TVWK payload length mismatch")
    moves = np.frombuffer(raw, dtype="<u2", offset=_TRAJ_HEADER).reshape(t, 2).astype(np.int64)
    moves[(moves == _HOLD_RECORD).all(axis=1)] = _HOLD
    return Trajectory(n, 0, moves, bool(raw[17]))
