"""Word-packed linear algebra over the two-element field.

Vectors and matrices are stored as little-endian machine words: bit b of a
row lives in word b // 64 at position b % 64.  All values are canonical,
meaning bits at positions >= n in the last word are always zero, so equality
and hashing can work directly on the packed words.

The module provides Gaussian-elimination rank, invertibility tests, exact
uniform sampling from the invertible group by rejection, matrix-vector
products with an explicit operation-cost model, canonical integer
encodings for exhaustive enumeration, and a binary file format for
matrices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WORD_BITS",
    "BitVector",
    "BitMatrix",
    "OpCount",
    "rank",
    "rank_naive",
    "rank_words_batch",
    "is_invertible",
    "sample_uniform_invertible_batch",
    "matvec",
    "matvec_cost",
    "random_bit_words",
    "derive_rng",
    "save_matrix",
    "load_matrix",
]

WORD_BITS = 64
_ONE = np.uint64(1)

# Magic prefix for the matrix file format.
_MATRIX_MAGIC = b"GF2M"
_MATRIX_VERSION = 1
_MATRIX_HEADER = struct.Struct("<4sBI")  # magic, version, n

# Rejection sampling accepts a candidate with probability > 0.288 for every
# n, so a round of at least 1024 candidates accepts none with probability
# below 0.712^1024; this cap on consecutive empty rounds bounds the loop.
_MAX_EMPTY_ROUNDS = 4

# rank() converts this many nonzero bytes of a strip before the rest.
_STRIP_PREFIX = 16

# Scratch budget, in uint64 words (512 KiB), of one sub-batch of the batched
# rank and of the rejection sampler's candidates.
_BATCH_WORDS = 1 << 16

# The rejection sampler ranks square candidates from this n up with rank(),
# which beats the batched rank's sub-batches there (BENCH_rank_crossover.json).
_STRIP_MIN_N = 704


def _n_words(n: int) -> int:
    return (n + WORD_BITS - 1) // WORD_BITS


def _pad_mask(n: int) -> np.uint64:
    """Mask keeping only the valid bits of the last word of an n-bit row."""
    return np.uint64((1 << (n % WORD_BITS or WORD_BITS)) - 1)


def _check_canonical(n: int, words: np.ndarray) -> None:
    if words.dtype != np.uint64:
        raise ValueError("packed storage must be uint64")
    if words.shape[-1] != _n_words(n):
        raise ValueError("wrong number of words for dimension")
    if (words[..., -1] & ~_pad_mask(n)) .any():
        raise ValueError("padding bits past position n must be zero")


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for the stream identified by (seed, *stream).

    Every source of randomness in the package is a generator produced here.
    Distinct stream tags give statistically independent streams, so parallel
    workers can each own one without coordination and results do not depend
    on scheduling.
    """
    if seed < 0 or any(s < 0 for s in stream):
        raise ValueError("seed and stream tags must be non-negative")
    return np.random.default_rng([int(seed), *[int(s) for s in stream]])


def random_bit_words(rng: np.random.Generator, shape: tuple[int, ...], n: int) -> np.ndarray:
    """Uniform random packed rows of n bits with canonical padding.

    Returns an array of shape ``shape + (ceil(n/64),)`` of uint64 words.
    """
    w = _n_words(n)
    words = rng.integers(0, 2**64, size=shape + (w,), dtype=np.uint64)
    words[..., -1] &= _pad_mask(n)
    return words


@dataclass(frozen=True)
class OpCount:
    """Operation-cost record: bit-level and word-level counts."""

    bit_ops: int
    word_ops: int


class _Packed:
    """n-bit rows packed along the last axis of ``words``: the one storage
    of BitVector and BitMatrix, checked canonical on construction."""

    __slots__ = ("n", "words")
    _ndim: int  # the number of axes of ``words``

    def __init__(self, n: int, words: np.ndarray):
        if n < 1:
            raise ValueError("dimension must be positive")
        if words.ndim != self._ndim:
            name = type(self).__name__
            raise ValueError(f"{name} needs {self._ndim}-D words, got {words.ndim}-D")
        _check_canonical(n, words)
        self.n = n
        self.words = words

    @classmethod
    def from_bits(cls, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        n = bits.shape[-1]
        return cls(n, _from_row_bytes(np.packbits(bits, axis=-1, bitorder="little"), n))

    def to_bits(self) -> np.ndarray:
        return np.unpackbits(_row_bytes(self), axis=-1, bitorder="little")[..., : self.n]

    def popcount(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.words.tobytes()))


class BitVector(_Packed):
    """Packed vector of n bits.

    Parameters
    ----------
    n : int
        Number of bits.
    words : np.ndarray
        uint64 array of length ceil(n/64), little-endian bit order,
        canonical padding (bits >= n are zero).
    """

    __slots__ = ()
    _ndim = 1

    def __repr__(self) -> str:
        return f"BitVector({''.join(str(b) for b in self.to_bits())})"


class BitMatrix(_Packed):
    """Packed n x n matrix over Z_2, row-major.

    Parameters
    ----------
    n : int
        Dimension.
    words : np.ndarray
        uint64 array of shape (n, ceil(n/64)); row i is a packed BitVector.
    """

    __slots__ = ()
    _ndim = 2

    def __init__(self, n: int, words: np.ndarray):
        super().__init__(n, words)
        if words.shape[0] != n:
            raise ValueError("need exactly n rows")

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, _identity_words(n, 1, n)[0])

    @classmethod
    def from_bits(cls, bits) -> "BitMatrix":
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
            raise ValueError("need a square 0/1 array")
        return super().from_bits(bits)

    def __repr__(self) -> str:
        lines = ["".join(str(b) for b in r) for r in self.to_bits()]
        return "BitMatrix([" + ", ".join(lines) + "])"


def _identity_words(n: int, count: int, k: int) -> np.ndarray:
    """`count` copies of the first k columns of the n x n identity,
    word-packed: row r holds bit r when r < k."""
    state = np.zeros((count, n, _n_words(k)), dtype=np.uint64)
    idx = np.arange(k)
    state[:, idx, idx // WORD_BITS] = _ONE << (idx % WORD_BITS).astype(np.uint64)
    return state


def _row_bytes(x: _Packed) -> np.ndarray:
    """Each row's ceil(n/8) bytes, LSB-first within each byte: the leading
    bytes of its little-endian words, the row layout of GF2M files and hex."""
    return np.ascontiguousarray(x.words, dtype="<u8").view(np.uint8)[..., : (x.n + 7) // 8]


def _from_row_bytes(rows: np.ndarray, n: int) -> np.ndarray:
    """uint64 words of uint8 rows laid out as by _row_bytes; canonical when
    the bytes' bits past n are zero."""
    words = np.zeros(rows.shape[:-1] + (_n_words(n),), dtype="<u8")
    words.view(np.uint8)[..., : rows.shape[-1]] = rows
    return words.astype(np.uint64, copy=False)


def rank(x: BitMatrix) -> int:
    """Row rank over Z_2 of one matrix, eliminated 8 columns at a time.

    The kernel for one wide matrix, as `walk` checks; rank_words_batch is
    the one for a batch of small ones.  Per strip, a byte column of the
    packed rows, a scan in row order picks up to 8 pivot rows with
    independent bytes (combos[mask] is the XOR of the bytes of the pivots
    in mask), and a table of the same XORs of whole pivot rows, built by
    doubling, clears the strip from every row with a nonzero byte, the
    pivots included, in one gather and one XOR: four Russians (Albrecht,
    Bard and Hart, ACM TOMS 36(3), 2010).  A pivot row clears to zero and
    stays zero, so later strips touch fewer rows.
    """
    a = x.words.copy()
    strips = a.view(np.uint8)  # on any byte order a column permutation
    found = 0
    for s in range(strips.shape[1]):
        col = strips[:, s]
        hit = np.flatnonzero(col)
        if not hit.size:
            continue
        combos, pivots = _strip_pivots(col, hit)
        table = np.zeros(256, dtype=np.intp)
        table[np.array(combos)] = np.arange(len(combos))
        w = s // 8  # the earlier words are zero in every row
        sums = np.zeros((len(combos), a.shape[1] - w), dtype=np.uint64)
        for i, row in enumerate(pivots):
            np.bitwise_xor(sums[: 1 << i], a[row, w:], out=sums[1 << i : 2 << i])
        a[hit, w:] ^= sums[table[col[hit]]]
        found += len(pivots)
        if found == x.n:
            break
    return found


def _strip_pivots(col: np.ndarray, hit: np.ndarray) -> tuple[list, list]:
    """The first rows of `hit` whose bytes in `col` are independent, up to 8.

    Returns the span of their bytes in doubling order and the rows.  A
    random strip finds its 8 pivots within its first rows, so only the
    first _STRIP_PREFIX hits are converted to Python ints unless those
    yield fewer.
    """
    combos, pivots = [0], []
    for part in (hit[:_STRIP_PREFIX], hit[_STRIP_PREFIX:]):
        for row, byte in zip(part.tolist(), col[part].tolist()):
            if byte not in combos:
                combos += [c ^ byte for c in combos]
                pivots.append(row)
                if len(pivots) == 8:
                    return combos, pivots
    return combos, pivots


def rank_naive(x: BitMatrix) -> int:
    """Independent bit-by-bit eliminator: the test oracle for rank()."""
    a = x.to_bits().astype(np.uint8)
    n = x.n
    r = 0
    for col in range(n):
        pivot = -1
        for row in range(r, n):
            if a[row, col]:
                pivot = row
                break
        if pivot < 0:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for row in range(n):
            if row != r and a[row, col]:
                a[row] ^= a[r]
        r += 1
    return r


def rank_words_batch(rows: np.ndarray, ncols: int) -> np.ndarray:
    """Ranks of a batch of packed matrices, vectorized over the batch.

    The kernel for a batch of small matrices: the rejection sampler below
    n = 704 and for its n x k slices, multi-word for k > 64 (`cutoff --k`),
    and the statistic-TV corner rank.  rank() is the kernel for one wide
    matrix.

    Parameters
    ----------
    rows : np.ndarray
        uint64 array of shape (B, m, W); sample b is an m x ncols matrix.
        Bits at or above ncols are ignored.
    ncols : int
        Number of valid bit columns per row.

    Returns
    -------
    np.ndarray
        int64 array of shape (B,) with the Z_2 rank of each sample.

    Notes
    -----
    Row-order elimination without pivot search: step k XORs row k into
    every later row of the same sample that has row k's pivot bit, so row
    k is nonzero at its step exactly when it is independent of rows
    0..k-1.  A single-word row pivots on its highest set bit, which a later
    row r has exactly when r ^ p < r: min(r, r ^ p) clears it in two passes,
    about m^2 B word operations for a square batch.  A multi-word row pivots
    on its lowest set bit, about m^2 W B / 2 multiply-XORs plus a pivot-word
    gather per step.  A batch-minor (m, W, B) copy makes each step
    whole-array passes over the rows below k.  A tall batch is
    eliminated over its first min(m, ncols) + 16 rows, which nearly always
    reach the full rank, and over all m rows for the samples that fall short.
    The batch is eliminated in sub-batches of at most 512 KiB of rows, so
    the scratch does not grow with B.
    """
    rows = rows[:, :, : _n_words(ncols)]
    nb, m, nw = rows.shape
    target = min(m, ncols)
    head = target + 16
    step = max(1, _BATCH_WORDS // max(1, m * nw))
    ranks = np.empty(nb, dtype=np.int64)
    for s in range(0, nb, step):
        sub = rows[s : s + step]
        part = _eliminate(sub[:, :head], ncols, target)
        if head < m:
            short = np.flatnonzero(part < target)
            part[short] = _eliminate(sub[short], ncols, target)
        ranks[s : s + step] = part
    return ranks


def _eliminate(rows: np.ndarray, ncols: int, target: int) -> np.ndarray:
    """Row-order elimination of (B, m, W) rows, stopping once all ranks are `target`."""
    nb, m, nw = rows.shape
    a = rows.transpose(1, 2, 0).astype(np.uint64, order="C", copy=True)
    a[:, -1] &= _pad_mask(ncols)
    flat = a.reshape(m, nw * nb)  # word w of sample b's row k: flat[k, w*nb + b]
    buf = np.empty((m, nb), dtype=np.uint64)
    prod = np.empty_like(a) if nw > 1 else None  # row k times each later row's hit
    ranks = np.zeros(nb, dtype=np.int64)
    for k in range(m):
        hit = buf[k + 1 :]
        if nw == 1:
            p, rest = flat[k], flat[k + 1 :]
            # rest ^ p < rest exactly when rest has p's highest set bit
            # (unsigned compare); p == 0 leaves rest as it is.
            np.bitwise_xor(rest, p, out=hit)
            np.minimum(rest, hit, out=rest)
            ranks += p != 0
        else:
            pick = (a[k] != 0).argmax(axis=0) * nb + np.arange(nb)  # pivot words
            low = flat[k, pick]
            low &= ~low + _ONE
            np.take(flat[k + 1 :], pick, axis=1, out=hit)
            hit &= low
            hit >>= np.bitwise_count(low - _ONE)  # 0/1 per row
            np.multiply(a[k], hit[:, None, :], out=prod[k + 1 :])
            a[k + 1 :] ^= prod[k + 1 :]
            ranks += low != 0
        if k + 1 >= target and (ranks == target).all():
            break
    return ranks


def is_invertible(x: BitMatrix) -> bool:
    """True iff the matrix has full rank over Z_2."""
    return rank(x) == x.n


def sample_uniform_invertible_batch(
    n: int, count: int, rng: np.random.Generator, k: int | None = None
) -> np.ndarray:
    """`count` exact uniform invertible matrices as packed words.

    Returns a uint64 array of shape (count, n, ceil(k/64)).  Each round draws
    at least 1024 candidates with all bits uniform and keeps those of full
    rank k; acceptance is prod_{i=n-k+1..n}(1 - 2^-i) > 0.288, so fewer
    than 3.5 candidates are ranked per sample on average.  The output is a
    deterministic function of the generator state.  With k < n the samples
    are uniform rank-k n x k matrices, the first k columns of uniform
    invertible ones.

    A round's candidates are drawn and ranked in consecutive sub-batches of
    at most 512 KiB; once `count` samples are accepted, the rest of the
    round is drawn without being ranked.  Square candidates from n = 704
    (_STRIP_MIN_N) are ranked one by one with rank(), faster there; tall
    n x k slices stay on rank_words_batch.  Either gives the exact rank,
    so the choice moves no sample.  Each candidate word is one
    generator output, so the samples and the final generator state are
    those of one round-sized draw, and the scratch beyond the output does
    not grow with `count`.
    """
    k = n if k is None else k
    if n < 1 or not 1 <= k <= n or count < 0:
        raise ValueError(f"need n >= 1, 1 <= k <= n and count >= 0 (got {n}, {k}, {count})")
    out = np.empty((count, n, _n_words(k)), dtype=np.uint64)
    step = max(1, _BATCH_WORDS // (n * _n_words(k)))
    filled = empty_rounds = 0
    while filled < count:
        batch = max(1024, 2 * (count - filled))
        before = filled
        for start in range(0, batch, step):
            cand = random_bit_words(rng, (min(step, batch - start), n), k)
            if filled < count:
                if k == n >= _STRIP_MIN_N:
                    full = [is_invertible(BitMatrix(n, c)) for c in cand]
                else:
                    full = rank_words_batch(cand, k) == k
                take = cand[full][: count - filled]
                out[filled : filled + take.shape[0]] = take
                filled += take.shape[0]
        empty_rounds = 0 if filled > before else empty_rounds + 1
        if empty_rounds == _MAX_EMPTY_ROUNDS:
            raise RuntimeError("rejection sampling accepted no candidate")
    return out


def matvec(x: BitMatrix, v: BitVector) -> BitVector:
    """Product y = x v over Z_2: y_i is the parity of row_i AND v.

    Word-AND plus population count per row; the cost model for this routine
    is given by matvec_cost.
    """
    if x.n != v.n:
        raise ValueError("dimension mismatch")
    acc = np.bitwise_count(x.words & v.words[None, :]).sum(axis=1) & 1
    bits = acc.astype(np.uint8)
    return BitVector.from_bits(bits)


def matvec_cost(n: int, word_bits: int = WORD_BITS) -> OpCount:
    """Cost of one matrix-vector product: n^2 bit ops, n*ceil(n/w) word ops."""
    return OpCount(bit_ops=n * n, word_ops=n * ((n + word_bits - 1) // word_bits))


def encode_key(x: BitMatrix) -> int:
    """Canonical integer key: bit (i*n + j) of the key is entry (i, j).

    Bijective on n x n matrices; arbitrary-precision.  A test oracle:
    test_gf2core pins its layout, and acceptance criterion 8's thread-count
    check compares public keys by it.
    """
    flat = x.to_bits().reshape(-1)
    return int.from_bytes(np.packbits(flat, bitorder="little").tobytes(), "little")


def decode_key(key: int, n: int) -> BitMatrix:
    """Inverse of encode_key for a given dimension; test_exactgroup's key oracle."""
    if key < 0 or key >= 1 << (n * n):
        raise ValueError("key out of range for dimension")
    nbytes = (n * n + 7) // 8
    raw = np.frombuffer(key.to_bytes(nbytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[: n * n]
    return BitMatrix.from_bits(bits.reshape(n, n))


def save_matrix(path, x: BitMatrix) -> None:
    """Write a matrix in the binary format GF2M v1.

    Layout: magic "GF2M", version byte 0x01, n as u32 little-endian, then
    ceil(n/8) bytes per row, row-major, LSB-first within each byte: the
    leading bytes of each row's little-endian words.
    """
    header = _MATRIX_HEADER.pack(_MATRIX_MAGIC, _MATRIX_VERSION, x.n)
    with open(path, "wb") as fh:
        fh.write(header + _row_bytes(x).tobytes())


def load_matrix(path) -> BitMatrix:
    """Read a matrix written by save_matrix.

    Validates magic, version, length and that every padding bit past column
    n of each row is zero, so a corrupted file never loads as a matrix.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MATRIX_MAGIC:
        raise ValueError("not a GF2M file")
    if len(raw) < _MATRIX_HEADER.size:
        raise ValueError("truncated GF2M header")
    _, version, n = _MATRIX_HEADER.unpack_from(raw)
    if version != _MATRIX_VERSION:
        raise ValueError(f"unsupported GF2M version {version}")
    if n < 1:
        raise ValueError("corrupt GF2M header")
    row_bytes = (n + 7) // 8
    body = raw[_MATRIX_HEADER.size :]
    if len(body) != n * row_bytes:
        raise ValueError("GF2M payload length mismatch")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(n, row_bytes)
    if n % 8 and (rows[:, -1] >> n % 8).any():  # padding sits in a row's last byte only
        raise ValueError("GF2M padding bits past column n must be zero")
    return BitMatrix(n, _from_row_bytes(rows, n))
