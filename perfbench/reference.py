"""Independent computations the benchmark checks tvwalk's outputs against.

Nothing here imports tvwalk.  File parsers follow the layouts documented in
the project README; matrices are held as Python integers, one per row, with
bit c of row r equal to entry (r, c); group elements are row-major integer
keys with bit i*n + j equal to entry (i, j).
"""

from __future__ import annotations

import math
import struct

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

HOLD = 0xFFFF


# ---------------------------------------------------------------------------
# Files and the protocol.
# ---------------------------------------------------------------------------


def parse_gf2m(data: bytes) -> list[int]:
    """Rows of a GF2M v1 matrix file: magic, version 1, n (u32 LE), rows."""
    if len(data) < 9 or data[:4] != b"GF2M" or data[4] != 1:
        raise ValueError("bad GF2M header")
    (n,) = struct.unpack_from("<I", data, 5)
    row_bytes = (n + 7) // 8
    if len(data) != 9 + n * row_bytes:
        raise ValueError("GF2M length does not match n")
    return [
        int.from_bytes(data[9 + r * row_bytes : 9 + (r + 1) * row_bytes], "little")
        for r in range(n)
    ]


def parse_tvwk(data: bytes) -> tuple[int, bool, np.ndarray]:
    """(n, lazy, moves) of a TVWK v1 trajectory; moves is a (t, 2) array."""
    if len(data) < 18 or data[:4] != b"TVWK" or data[4] != 1:
        raise ValueError("bad TVWK header")
    n, t = struct.unpack_from("<IQ", data, 5)
    if data[17] not in (0, 1) or len(data) != 18 + 4 * t:
        raise ValueError("bad TVWK flag or length")
    moves = np.frombuffer(data, dtype="<u2", offset=18).reshape(t, 2)
    return n, bool(data[17]), moves


def replay_rows(n: int, moves: np.ndarray) -> list[int]:
    """Apply row_i ^= row_j for each recorded move to the identity."""
    rows = [1 << r for r in range(n)]
    for i, j in moves.tolist():
        if i == HOLD:
            continue
        rows[i] ^= rows[j]
    return rows


def hex_to_int(text: str) -> int:
    """A README hex vector: byte k holds bits 8k..8k+7, LSB first."""
    return int.from_bytes(bytes.fromhex(text), "little")


def matvec_rows(rows: list[int], x: int) -> int:
    """y = M x over Z_2 with bit r of y the parity of row r AND x."""
    y = 0
    for r, row in enumerate(rows):
        y |= ((row & x).bit_count() & 1) << r
    return y


def parse_response(line: str) -> dict[str, str]:
    """Fields of a `prove` line: y=<hex> bit_ops=<int> word_ops=<int> role=..."""
    return dict(tok.split("=", 1) for tok in line.split())


# ---------------------------------------------------------------------------
# The walk on small groups.
# ---------------------------------------------------------------------------


class SmallGroup:
    """Invertible n x n binary matrices, enumerated by BFS from the identity,
    with the walk's neighbour table and sparse kernel."""

    def __init__(self, n: int):
        moves = [(i, j) for i in range(n) for j in range(n) if i != j]
        mask = (1 << n) - 1
        start = sum(1 << (i * n + i) for i in range(n))
        self.index = {start: 0}
        self.keys = [start]
        nbrs = []
        q = 0
        while q < len(self.keys):
            key = self.keys[q]
            row = []
            for i, j in moves:
                nxt = key ^ (((key >> (j * n)) & mask) << (i * n))
                idx = self.index.setdefault(nxt, len(self.keys))
                if idx == len(self.keys):
                    self.keys.append(nxt)
                row.append(idx)
            nbrs.append(row)
            q += 1
        self.n = n
        self.size = len(self.keys)
        self.degree = len(moves)
        nbr = np.array(nbrs, dtype=np.int64)
        rows = np.repeat(np.arange(self.size), self.degree)
        self.kernel = sp.csr_matrix(
            (np.full(rows.size, 1.0 / self.degree), (rows, nbr.reshape(-1))),
            shape=(self.size, self.size),
        )

    def law(self, t: int, lazy: bool = False) -> list[np.ndarray]:
        """Laws at times 0..t from the identity (the kernel is symmetric)."""
        p = np.zeros(self.size)
        p[0] = 1.0
        out = [p]
        for _ in range(t):
            q = self.kernel @ p
            p = 0.5 * (p + q) if lazy else q
            out.append(p)
        return out

    def tv(self, p: np.ndarray) -> float:
        return 0.5 * float(np.abs(p - 1.0 / self.size).sum())

    def l2(self, p: np.ndarray) -> float:
        return math.sqrt(float(np.square(p * self.size - 1.0).sum()) / self.size)

    def dense_spectrum(self) -> np.ndarray:
        """All eigenvalues, descending."""
        return np.linalg.eigvalsh(self.kernel.toarray())[::-1]

    def extremal_spectrum(self) -> tuple[float, float]:
        """(lambda_2, lambda_min) by an independent sparse solve."""
        v0 = np.ones(self.size) + np.linspace(0.0, 1.0, self.size)
        top = eigsh(self.kernel, k=2, which="LA", v0=v0, return_eigenvectors=False)
        low = eigsh(self.kernel, k=1, which="SA", v0=v0, return_eigenvectors=False)
        return float(np.sort(top)[0]), float(low[0])


def kassabov_floor(n: int) -> float:
    return 1.0 / (4.0 * (31.0 * math.sqrt(n) + 700.0) ** 2)


def lsi_interval(size: int, gap: float) -> tuple[float, float]:
    """Bounds on the log-Sobolev constant of a walk with uniform law on
    `size` states: below by the spectral floor 2/gap and by log(size);
    above by log(size - 1) / ((1 - 2/size) gap) (Diaconis and Saloff-Coste,
    Ann. Appl. Probab. 1996)."""
    lower = max(2.0 / gap, math.log(size))
    upper = math.log(size - 1) / ((1.0 - 2.0 / size) * gap)
    return lower, upper


def weight_support(n: int) -> tuple[int, int]:
    """Weights an invertible n x n matrix can have: every row is nonzero,
    and at most one row is all ones."""
    return n, n * n - n + 1


def corner_rank_support(n: int) -> tuple[int, int]:
    """Ranks of the top-left m x m corner, m = ceil(n/2), of an invertible
    matrix: its m rows are independent, so at most n - m of their corner
    columns can be dropped."""
    m = (n + 1) // 2
    return max(0, 2 * m - n), m
