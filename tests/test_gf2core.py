"""Bit-packed binary linear algebra: core invariants and frozen examples."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvwalk import cli
from tvwalk import gf2core as g
from tvwalk.chain import Trajectory, _apply_moves, replay, run
from tvwalk.exactgroup import order_ratio


def random_matrix(n: int, seed: int) -> g.BitMatrix:
    return draw_matrix(n, np.random.default_rng(seed))


def draw_matrix(n: int, rng: np.random.Generator) -> g.BitMatrix:
    return g.BitMatrix(n, g.random_bit_words(rng, (n,), n))


def draw_vector(n: int, rng: np.random.Generator) -> g.BitVector:
    return g.BitVector(n, g.random_bit_words(rng, (), n).reshape(-1))


def one_move(n: int, i: int, j: int) -> g.BitMatrix:
    """I + E_{i,j}: the identity with row j added to row i, by replay."""
    return replay(Trajectory(n, [[i, j]]))


def pair_strategy(max_n: int = 24):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.integers(0, 2**32 - 1),
        ).filter(lambda t: t[1] != t[2])
    )


def one_shot_sampler(n: int, count: int, rng: np.random.Generator, k: int | None = None):
    """The rejection sampler with each round's candidates drawn and ranked at
    once: the oracle for the sub-batched one."""
    k = n if k is None else k
    out = np.empty((count, n, g._n_words(k)), dtype=np.uint64)
    filled = 0
    while filled < count:
        cand = g.random_bit_words(rng, (max(1024, 2 * (count - filled)), n), k)
        take = cand[g.rank_words_batch(cand, k) == k][: count - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    return out


def same_state(a, b) -> bool:
    """Equal bit-generator states (Philox's holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


def padded_square_bits(rows: np.ndarray, ncols: int) -> np.ndarray:
    """The first ncols bit columns of each (m, W) sample, zero-padded to a
    square 0/1 matrix of side max(m, ncols); bits past ncols are dropped."""
    batch, m, _ = rows.shape
    bits = np.unpackbits(rows.view(np.uint8), axis=-1, bitorder="little")[:, :, :ncols]
    side = max(m, ncols)
    out = np.zeros((batch, side, side), dtype=np.uint8)
    out[:, :m, :ncols] = bits
    return out


class TestMove:
    """The walk's one move, row i ^= row j, as the chain applies it."""

    def test_identity_example(self):
        x = one_move(3, 0, 2)
        assert x.to_bits().tolist() == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]

    @given(pair_strategy())
    def test_commutes_with_matvec(self, tns):
        """(T x) v == T (x v): the move kernel on the bits of x v gives the
        product with the replayed move T, which is what the honest protocol
        responder relies on."""
        n, i, j, seed = tns
        rng = np.random.default_rng(seed)
        xv = g.matvec(draw_matrix(n, rng), draw_vector(n, rng))
        bits = xv.to_bits().tolist()
        _apply_moves(bits, Trajectory(n, [[i, j]]))
        assert g.matvec(one_move(n, i, j), xv) == g.BitVector.from_bits(bits)

    @given(pair_strategy())
    def test_vector_update_is_involution(self, tns):
        n, i, j, seed = tns
        bits = draw_vector(n, np.random.default_rng(seed)).to_bits().tolist()
        before = list(bits)
        _apply_moves(bits, Trajectory(n, [[i, j], [i, j]]))
        assert bits == before


class TestRank:
    def test_identity_full_rank(self):
        for n in (1, 2, 7, 64, 65):
            assert g.rank(g.BitMatrix.identity(n)) == n

    def test_zero_rank(self):
        assert g.rank(g.BitMatrix.from_bits(np.zeros((5, 5)))) == 0

    def test_duplicate_rows_drop_rank(self):
        x = g.BitMatrix.from_bits([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        assert g.rank(x) == 2
        assert not g.is_invertible(x)

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_agrees_with_unpacked_eliminator(self, n, seed):
        x = random_matrix(n, seed)
        assert g.rank(x) == g.rank_naive(x)

    def test_late_eighth_pivot_of_a_strip(self):
        # The first strip's leading nonzero bytes span only 7 bits, so its
        # 8th pivot comes after the first prefix of hits that rank() reads.
        rng = np.random.default_rng(13)
        late = g._STRIP_PREFIX + 5
        words = g.random_bit_words(rng, (64,), 64)
        low = np.concatenate([1 << np.arange(7), rng.integers(1, 128, late - 7), [128]])
        words[: late + 1, 0] = (words[: late + 1, 0] & ~np.uint64(0xFF)) | low.astype(np.uint64)
        x = g.BitMatrix(64, words)
        # Full rank needs all 8 pivots of the first strip.
        assert g.rank(x) == g.rank_naive(x) == 64

    @pytest.mark.parametrize("n", [24, 64, 130])
    def test_all_zero_strips(self, n):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, (n, n))
        bits[:, 8:24] = 0  # two whole byte strips
        x = g.BitMatrix.from_bits(bits)
        assert g.rank(x) == g.rank_naive(x) <= n - 16

    @pytest.mark.parametrize("n, independent", [(65, 40), (130, 129), (200, 97), (256, 255)])
    def test_rank_deficient_multi_word(self, n, independent):
        rng = np.random.default_rng(independent)
        basis = rng.integers(0, 2, (independent, n))
        mix = rng.integers(0, 2, (n, independent))
        x = g.BitMatrix.from_bits(mix @ basis % 2)
        assert g.rank(x) == g.rank_naive(x) <= independent

    @given(pair_strategy())
    def test_invariant_under_row_operations(self, tns):
        n, i, j, seed = tns
        x = random_matrix(n, seed)
        words = x.words.copy()
        words[i] ^= words[j]
        assert g.rank(g.BitMatrix(n, words)) == g.rank(x)

    @given(st.integers(1, 20), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_batch_agrees_with_scalar(self, n, batch, seed):
        rng = np.random.default_rng(seed)
        rows = g.random_bit_words(rng, (batch, n), n)
        got = g.rank_words_batch(rows, n)
        for b in range(batch):
            assert got[b] == g.rank_naive(g.BitMatrix(n, rows[b].copy()))

    @given(
        st.integers(1, 140),
        st.integers(1, 140),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_agrees_with_oracle(self, m, ncols, batch, low_rank, garbage, seed):
        # Square, rectangular and tall batches, single- and multi-word rows,
        # against rank_naive on the zero-padded square.
        rng = np.random.default_rng(seed)
        rows = g.random_bit_words(rng, (batch, m), ncols)
        if low_rank:
            # Overwrite some rows with the sum of two rows (a duplicate when
            # the two coincide with each other or with the row itself).
            for b in range(batch):
                for i in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False):
                    j, k = rng.integers(0, m, size=2)
                    rows[b, i] = rows[b, j] ^ rows[b, k]
        if garbage:
            # Set bits at and above ncols: in the last word and in an extra one.
            noise = rng.integers(0, 2**64, size=(batch, m, 2), dtype=np.uint64)
            rows[:, :, -1] |= noise[:, :, 0] & ~g._pad_mask(ncols)
            rows = np.concatenate([rows, noise[:, :, 1:]], axis=2)
        expected = [g.rank_naive(g.BitMatrix.from_bits(a)) for a in padded_square_bits(rows, ncols)]
        before = rows.copy()
        assert g.rank_words_batch(rows, ncols).tolist() == expected
        assert np.array_equal(rows, before)

    @pytest.mark.parametrize("n", [8, 9, 63, 64, 65, 127, 128, 129, 200])
    @pytest.mark.parametrize(
        "shape", ["invertible", "random", "duplicate_row", "zero_row", "zero_column", "half_rank"]
    )
    def test_strips_agree_with_oracles(self, n, shape):
        # Multi-word rows through the 8-column strips of rank(): empty strips
        # (a zero column, a low rank), strips with fewer than 8 pivots, and
        # the end when every row has been a pivot.
        rng = np.random.default_rng(n)
        words = g.sample_uniform_invertible_batch(n, 1, rng)[0]
        i, j = rng.choice(n, size=2, replace=False)
        if shape == "random":
            words = g.random_bit_words(rng, (n,), n)
        elif shape == "duplicate_row":
            words[i] = words[j]
        elif shape == "zero_row":
            words[i] = 0
        elif shape == "zero_column":
            words[:, j // 64] &= ~(np.uint64(1) << np.uint64(j % 64))
        elif shape == "half_rank":
            # Every row a random combination of the same n // 2 random rows.
            basis = g.BitMatrix(n, g.random_bit_words(rng, (n,), n)).to_bits()[: n // 2]
            mix = rng.integers(0, 2, size=(n, n // 2))
            words = g.BitMatrix.from_bits(mix @ basis % 2).words
        x = g.BitMatrix(n, words)
        got = g.rank(x)
        assert got == g.rank_naive(x) == g.rank_words_batch(x.words[None], n)[0]
        if shape == "half_rank":
            assert got <= n // 2
        elif shape != "random":
            assert got == (n if shape == "invertible" else n - 1)

    def test_walk_endpoint_at_1024(self):
        _, final = run(1024, 100_000, seed=1)
        assert g.rank(final) == 1024
        words = final.words.copy()
        words[5] = words[700] ^ words[1023]
        assert g.rank(g.BitMatrix(1024, words)) == 1023

    def test_rank_reached_past_the_head_rows(self):
        # Tall samples whose rank is set by rows far below min(m, ncols):
        # the first 40 rows repeat e_0 or carry only bits past ncols.
        m, ncols = 64, 3
        rows = np.zeros((3, m, 1), dtype=np.uint64)
        rows[:, :40, 0] = 1
        rows[1, :40, 0] = 1 << 5
        rows[:, 50, 0] = 2
        rows[:, 63, 0] = 4 | 1 << 9
        rows[2, 63, 0] = 3
        assert g.rank_words_batch(rows, ncols).tolist() == [3, 2, 2]

    @pytest.mark.parametrize("m,ncols", [(64, 64), (130, 130), (150, 70)])
    def test_batch_crosses_sub_batches(self, m, ncols, monkeypatch):
        # Three sub-batches and 7 samples (of a budget cut to 32 KiB, so the
        # per-sample oracle stays cheap): single-word, multi-word and tall
        # rows.  Square samples get a duplicated row (rank m - 1); tall ones
        # get 60 zero head rows (rank reached past the head) or only 40
        # nonzero rows (rank 40, re-eliminated over all rows).
        monkeypatch.setattr(g, "_BATCH_WORDS", 1 << 12)
        step = g._BATCH_WORDS // (m * g._n_words(ncols))
        rng = np.random.default_rng(m)
        rows = g.random_bit_words(rng, (3 * step + 7, m), ncols)
        if m > ncols:
            rows[1::5, :60] = 0
            rows[2::5, 40:] = 0
        else:
            rows[::3, -1] = rows[::3, 0]
        got = g.rank_words_batch(rows, ncols)
        expected = [g.rank(g.BitMatrix.from_bits(a)) for a in padded_square_bits(rows, ncols)]
        assert got.tolist() == expected
        assert len(set(expected)) > 1

    @pytest.mark.parametrize(
        "shape", ["top_bit", "upper", "lower", "upper_dependent", "lower_dependent"]
    )
    def test_single_word_pivot_shapes(self, shape):
        # Full-width single-word rows pivot on their highest set bit: bit 63
        # in every row (a signed compare would misorder such rows), and unit
        # triangular matrices, whose rows share a top bit (upper) or each
        # bring a new one (lower), with the last row the sum of two others.
        rng = np.random.default_rng(63)
        bits = rng.integers(0, 2, (4, 64, 64), dtype=np.uint8)
        if shape == "top_bit":
            bits[:, :, 63] = 1
        else:
            bits = np.triu(bits) if shape.startswith("upper") else np.tril(bits)
            bits[:, np.arange(64), np.arange(64)] = 1
            if shape.endswith("dependent"):
                bits[:, -1] = bits[:, 3] ^ bits[:, 40]
        xs = [g.BitMatrix.from_bits(b) for b in bits]
        got = g.rank_words_batch(np.stack([x.words for x in xs]), 64)
        assert got.tolist() == [g.rank_naive(x) for x in xs] == [g.rank(x) for x in xs]
        if shape != "top_bit":
            assert got.tolist() == [63 if shape.endswith("dependent") else 64] * 4

    def test_tall_single_word_with_bits_past_ncols(self):
        # m = 80 rows of 40 columns under full 64-bit words: the bits past
        # ncols would be the highest-bit pivots if they were not masked.
        # Sample 0 repeats one 40-bit row under distinct high bits (rank 1);
        # sample 1 has 30 independent rows and 50 sums of them.
        rng = np.random.default_rng(80)
        rows = rng.integers(0, 2**64, size=(6, 80, 1), dtype=np.uint64)
        rows[0, :, 0] = rows[0, 0, 0] & g._pad_mask(40) | rows[0, :, 0] & ~g._pad_mask(40)
        mix = rng.integers(0, 2, (50, 30), dtype=np.uint8)
        for r in range(50):
            rows[1, 30 + r, 0] = np.bitwise_xor.reduce(rows[1, :30, 0][mix[r] == 1])
        got = g.rank_words_batch(rows, 40)
        squares = [g.BitMatrix.from_bits(a) for a in padded_square_bits(rows, 40)]
        assert got.tolist() == [g.rank_naive(x) for x in squares] == [g.rank(x) for x in squares]
        assert got[0] == 1 and got[1] <= 30 and got[2:].tolist() == [40] * 4

    def test_batch_rectangular_slices(self):
        # n x k slices: rank of the identity's first k columns is k.
        n, k = 8, 3
        rows = np.zeros((1, n, 1), dtype=np.uint64)
        for r in range(k):
            rows[0, r, 0] = np.uint64(1) << np.uint64(r)
        assert g.rank_words_batch(rows, k).tolist() == [k]


class TestSampling:
    def test_samples_are_invertible(self):
        rng = g.derive_rng(1)
        for n in (2, 3, 8, 33):
            for words in g.sample_uniform_invertible_batch(n, 3, rng):
                assert g.is_invertible(g.BitMatrix(n, words))

    def test_rejection_acceptance_rate(self):
        """Fraction of uniform 8x8 matrices that are invertible, 1e5 proposals."""
        rng = g.derive_rng(123)
        words = g.random_bit_words(rng, (100_000, 8), 8)
        rate = float((g.rank_words_batch(words, 8) == 8).mean())
        assert abs(rate - order_ratio(8)) <= 0.005

    def test_batch_sampler_uniform_over_smallest_group(self):
        """All 6 invertible 2x2 matrices within 3 sigma of 1/6 at 60k draws."""
        rng = g.derive_rng(43)
        words = g.sample_uniform_invertible_batch(2, 60_000, rng)
        assert (g.rank_words_batch(words, 2) == 2).all()
        keys = (words[:, 0, 0] + (words[:, 1, 0] << np.uint64(2))).astype(np.int64)
        counts = np.bincount(keys, minlength=16)
        hit = counts[counts > 0]
        assert hit.size == 6
        sigma = math.sqrt(60_000 * (1 / 6) * (5 / 6))
        assert np.abs(hit - 10_000).max() <= 3 * sigma

    def test_golden_rejection_stream(self):
        # The accepted candidates, and so the generator's position, depend on
        # every rank the sampler computes: a changed rank kernel that ranks one
        # candidate differently moves this digest.
        words = g.sample_uniform_invertible_batch(64, 2500, g.derive_rng(2024, 4))
        assert hashlib.sha256(words.tobytes()).hexdigest() == (
            "6b82d82a4ee9ee8db855bb890d91f294bfa50285c6679f797d8a88aa65519480"
        )

    @pytest.mark.parametrize(
        "n,count,k,bitgen",
        [
            (256, 10, None, np.random.PCG64),  # met in sub-batch 1; 15 drawn unranked
            (64, 2500, None, np.random.PCG64),  # several sub-batches and rounds
            (128, 700, 3, np.random.PCG64),  # tall: the rest of round 1 is not ranked
            (96, 300, 65, np.random.PCG64),  # multi-word rows
            (64, 700, None, np.random.Philox),
        ],
    )
    def test_sub_batches_match_one_shot_rounds(self, n, count, k, bitgen):
        # Chunked full-range draws take the same generator outputs as one
        # round-sized draw: the samples and the generator's end state agree.
        rng, ref = np.random.Generator(bitgen(7)), np.random.Generator(bitgen(7))
        words = g.sample_uniform_invertible_batch(n, count, rng, k)
        assert np.array_equal(words, one_shot_sampler(n, count, ref, k))
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("n,k,strips", [(79, None, False), (80, None, True), (80, 70, False)])
    def test_strip_dispatch_matches_one_shot_rounds(self, n, k, strips, monkeypatch):
        # Square candidates from _STRIP_MIN_N up (cut to 80 here, so the
        # oracle's batched rank stays cheap) are ranked by rank(); smaller
        # and tall ones by rank_words_batch.  Same samples, same end state.
        monkeypatch.setattr(g, "_STRIP_MIN_N", 80)
        calls = []
        strip_rank = g.rank
        monkeypatch.setattr(g, "rank", lambda x: calls.append(x.n) or strip_rank(x))
        rng, ref = g.derive_rng(3, n), g.derive_rng(3, n)
        words = g.sample_uniform_invertible_batch(n, 40, rng, k)
        assert bool(calls) == strips
        assert np.array_equal(words, one_shot_sampler(n, 40, ref, k))
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)

    def test_memory_bounded_in_count(self):
        """Scratch beyond the output is a few 512 KiB sub-batches at any count
        (10,000 samples at n = 64 used to hold 30 MB of candidates)."""
        g.sample_uniform_invertible_batch(64, 10, g.derive_rng(0))
        extra = []
        for count in (2_500, 10_000):
            tracemalloc.start()
            try:
                out = g.sample_uniform_invertible_batch(64, count, g.derive_rng(5))
                extra.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            finally:
                tracemalloc.stop()
        assert max(extra) < 2 * 2**20
        assert abs(extra[1] - extra[0]) < 2**18

    @pytest.mark.parametrize("n,count,k", [(4, 10, 5), (0, 1, None), (3, 1, 0), (3, -1, None)])
    def test_rejects_undrawable_requests(self, n, count, k):
        # k = n + 1 has no rank-k sample and used to loop forever.
        with pytest.raises(ValueError):
            g.sample_uniform_invertible_batch(n, count, g.derive_rng(0), k=k)

    def test_bounded_when_nothing_is_accepted(self, monkeypatch):
        monkeypatch.setattr(g, "rank_words_batch", lambda rows, ncols: np.zeros(len(rows)))
        with pytest.raises(RuntimeError):
            g.sample_uniform_invertible_batch(4, 10, g.derive_rng(0))


class TestMatvecAndMul:
    def test_identity_matvec(self):
        rng = np.random.default_rng(0)
        for n in (3, 64, 70):
            v = draw_vector(n, rng)
            assert g.matvec(g.BitMatrix.identity(n), v) == v

    def test_basis_vector_selects_column(self):
        x = random_matrix(9, 7)
        bits = x.to_bits()
        for jcol in range(9):
            e = g.BitVector.from_bits([1 if b == jcol else 0 for b in range(9)])
            assert g.matvec(x, e).to_bits().tolist() == bits[:, jcol].tolist()

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_linearity(self, n, seed):
        rng = np.random.default_rng(seed)
        x = draw_matrix(n, rng)
        u = draw_vector(n, rng)
        v = draw_vector(n, rng)

        def add(a, b):
            return g.BitVector(n, a.words ^ b.words)

        assert g.matvec(x, add(u, v)) == add(g.matvec(x, u), g.matvec(x, v))

    def test_matvec_cost_model(self):
        c = g.matvec_cost(1024)
        assert c == g.OpCount(bit_ops=1024 * 1024, word_ops=1024 * 16)
        assert g.matvec_cost(8).word_ops == 8
        assert g.matvec_cost(1024, word_bits=32).word_ops == 1024 * 32


class TestEncoding:
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_round_trip(self, n, seed):
        x = random_matrix(n, seed)
        assert g.decode_key(g.encode_key(x), n) == x

    def test_key_bit_layout(self):
        # bit (i*n + j) of the key holds entry (i, j)
        x = g.BitMatrix.from_bits([[0, 1], [1, 1]])
        assert g.encode_key(x) == 0b1110
        assert g.encode_key(g.BitMatrix.identity(2)) == 0b1001

    def test_large_keys_are_exact(self):
        x = g.BitMatrix.identity(64)
        key = g.encode_key(x)
        assert g.decode_key(key, 64) == x
        assert key.bit_length() == 64 * 64  # top bit: entry (63, 63)

    def test_decode_validates_range(self):
        with pytest.raises(ValueError):
            g.decode_key(-1, 2)
        with pytest.raises(ValueError):
            g.decode_key(1 << 4, 2)


class TestContainers:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=130))
    def test_vector_bits_round_trip(self, bits):
        v = g.BitVector.from_bits(bits)
        assert v.to_bits().tolist() == bits
        assert v.popcount() == sum(bits)

    @given(st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_matrix_bits_round_trip(self, n, seed):
        x = random_matrix(n, seed)
        assert g.BitMatrix.from_bits(x.to_bits()) == x

    def test_noncanonical_padding_rejected(self):
        words = np.array([np.uint64(0b111)], dtype=np.uint64)
        with pytest.raises(ValueError):
            g.BitVector(2, words)

    def test_matrix_needs_square_input(self):
        with pytest.raises(ValueError):
            g.BitMatrix.from_bits([[1, 0, 0], [0, 1, 0]])

    def test_hash_consistency(self):
        a = g.BitVector.from_bits([1, 0, 1])
        b = g.BitVector.from_bits([1, 0, 1])
        assert a == b and hash(a) == hash(b)
        assert len({random_matrix(5, s) for s in range(20)} | {random_matrix(5, 3)}) == 20

    def test_vector_never_equals_matrix(self):
        v = g.BitVector(1, np.ones(1, dtype=np.uint64))
        x = g.BitMatrix(1, np.ones((1, 1), dtype=np.uint64))  # the same one bit
        assert v != x and x != v

    @pytest.mark.parametrize("shape", [(), (2, 1), (1, 1, 1)])
    def test_vector_rejects_words_of_another_rank(self, shape):
        with pytest.raises(ValueError, match="BitVector needs 1-D words"):
            g.BitVector(1, np.ones(shape, dtype=np.uint64))

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1, 1)])
    def test_matrix_rejects_words_of_another_rank(self, shape):
        with pytest.raises(ValueError, match="BitMatrix needs 2-D words"):
            g.BitMatrix(1, np.ones(shape, dtype=np.uint64))
        assert g.BitVector.from_bits([1]) != g.BitMatrix.identity(1)

    def test_strided_words_convert(self):
        words = np.zeros((2, 3), dtype=np.uint64)
        words[:, 0] = [5, 1]
        v = g.BitVector(65, words[:, 0])  # a column view: strided words
        assert v.to_bits().nonzero()[0].tolist() == [0, 2, 64]
        assert v == g.BitVector.from_bits(v.to_bits())

    @pytest.mark.parametrize("n", [1, 64, 65, 130])
    def test_identity_bits(self, n):
        assert np.array_equal(g.BitMatrix.identity(n).to_bits(), np.eye(n, dtype=np.uint8))


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        for n in (1, 2, 8, 9, 64, 100):
            x = random_matrix(n, n)
            path = tmp_path / f"m{n}.gf2m"
            g.save_matrix(path, x)
            assert g.load_matrix(path) == x

    def test_format_bytes(self, tmp_path):
        path = tmp_path / "id3.gf2m"
        g.save_matrix(path, g.BitMatrix.identity(3))
        data = path.read_bytes()
        assert data == b"GF2M" + bytes([1]) + (3).to_bytes(4, "little") + bytes([1, 2, 4])

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gf2m"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(ValueError):
            g.load_matrix(path)

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "trunc.gf2m"
        g.save_matrix(path, g.BitMatrix.identity(9))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError):
            g.load_matrix(path)

    def test_rejects_set_padding_bits(self, tmp_path):
        # bit 7 of the first row's second byte is column 15 of an 11 x 11 matrix
        path = tmp_path / "pad.gf2m"
        g.save_matrix(path, g.BitMatrix.identity(11))
        data = bytearray(path.read_bytes())
        data[9 + 1] |= 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="padding"):
            g.load_matrix(path)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1024])
    def test_payload_is_the_packed_bits(self, tmp_path, n):
        x = random_matrix(n, n)
        path = tmp_path / "m.gf2m"
        g.save_matrix(path, x)
        packed = np.packbits(x.to_bits(), axis=1, bitorder="little")
        assert path.read_bytes()[9:] == packed.tobytes()
        assert g.load_matrix(path) == x

    @pytest.mark.parametrize("n", [1, 9, 65, 100])
    def test_hex_is_the_row_layout(self, tmp_path, n):
        x = random_matrix(n, n)
        path = tmp_path / "m.gf2m"
        g.save_matrix(path, x)
        row_bytes = (n + 7) // 8
        payload = path.read_bytes()[9:]
        for r in range(n):
            row = payload[r * row_bytes : (r + 1) * row_bytes]
            assert cli._vector_to_hex(g.BitVector(n, x.words[r])) == row.hex()
            assert cli._vector_from_hex(row.hex(), n) == g.BitVector(n, x.words[r])

    @pytest.mark.parametrize("n", [1, 9, 11, 63, 65])
    def test_rejects_padding_bits_in_first_and_last_rows(self, tmp_path, n):
        path = tmp_path / "pad.gf2m"
        g.save_matrix(path, g.BitMatrix.identity(n))
        data = path.read_bytes()
        row_bytes = (n + 7) // 8
        for row in (0, n - 1):
            last = 9 + row * row_bytes + row_bytes - 1
            for bit in range(n % 8, 8):
                edited = bytearray(data)
                edited[last] |= 1 << bit
                path.write_bytes(bytes(edited))
                with pytest.raises(ValueError, match="GF2M padding"):
                    g.load_matrix(path)


class TestRngDerivation:
    def test_deterministic(self):
        a = g.derive_rng(7, 1, 2).integers(0, 2**63, size=5)
        b = g.derive_rng(7, 1, 2).integers(0, 2**63, size=5)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = g.derive_rng(7, 1).integers(0, 2**63, size=8)
        b = g.derive_rng(7, 2).integers(0, 2**63, size=8)
        c = g.derive_rng(8, 1).integers(0, 2**63, size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_negative_tags(self):
        with pytest.raises(ValueError):
            g.derive_rng(-1)
        with pytest.raises(ValueError):
            g.derive_rng(0, -3)
