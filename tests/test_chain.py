"""Walk runner: determinism, replay, laziness, projections, file format."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvwalk import chain as c
from tvwalk import cli
from tvwalk import diagnostics as dg
from tvwalk import gf2core as g
from tvwalk import protocol as pr

def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


run_params = st.tuples(
    st.integers(2, 16), st.integers(0, 120), st.integers(0, 2**32 - 1), st.booleans()
)


def same_state(a, b) -> bool:
    """Equal bit-generator states (Philox's holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


class TestRun:
    def test_zero_steps_is_identity(self):
        traj, final = c.run(5, 0, seed=9)
        assert final == g.BitMatrix.identity(5)
        assert traj.steps == 0 and traj.work_steps == 0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_steps_agree_lazy_or_not(self, n):
        """Down to n = 1, whose lazy walk has no pairs to bound its draws."""
        (plain, end_plain), (lazy, end_lazy) = c.run(n, 0, 3), c.run(n, 0, 3, lazy=True)
        assert end_plain == end_lazy == g.BitMatrix.identity(n)
        assert plain.steps == lazy.steps == 0 and lazy.lazy and not plain.lazy

    @given(run_params)
    @settings(max_examples=50, deadline=None)
    def test_replay_reproduces_endpoint(self, params):
        n, t, seed, lazy = params
        traj, final = c.run(n, t, seed, lazy)
        assert c.replay(traj) == final
        assert traj.n == n and traj.lazy == lazy
        assert traj.steps == t

    def test_deterministic_in_seed(self):
        a = c.run(6, 200, seed=4)
        b = c.run(6, 200, seed=4)
        assert a[1] == b[1] and np.array_equal(a[0].moves, b[0].moves)
        assert c.run(6, 200, seed=5)[1] != a[1]

    def test_endpoint_stays_in_group(self):
        for seed in range(10):
            _, final = c.run(7, 300, seed=seed)
            assert g.is_invertible(final)

    def test_non_lazy_never_holds(self):
        traj, _ = c.run(4, 500, seed=0)
        assert traj.work_steps == 500
        assert (traj.moves != c._HOLD).all()

    def test_lazy_holds_about_half(self):
        traj, final = c.run(4, 4000, seed=1, lazy=True)
        held = traj.steps - traj.work_steps
        sigma = math.sqrt(4000 * 0.25)
        assert abs(held - 2000) <= 4 * sigma
        assert c.replay(traj) == final

    def test_step_draws_every_move(self):
        traj, _ = c.run(3, 600, seed=3)
        seen = {tuple(mv) for mv in traj.moves.tolist()}
        assert seen == {(i, j) for i in range(3) for j in range(3) if i != j}

    def test_move_distribution_is_uniform(self):
        rng = g.derive_rng(12)
        counts: dict[tuple[int, int], int] = {}
        draws = 36_000
        for _ in range(draws):
            pair = c.draw_pair(rng, 3)
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 6
        sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
        for pair, cnt in counts.items():
            assert abs(cnt - draws / 6) <= 4 * sigma, (pair, cnt)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            c.run(3, -1, seed=0)
        with pytest.raises(ValueError):
            c.run(1, 5, seed=0)
        with pytest.raises(ValueError):
            c.draw_pair(g.derive_rng(0), 1)


H = c._HOLD


class TestTrajectory:
    def test_validates_move_indices(self):
        with pytest.raises(ValueError):
            c.Trajectory(2, np.array([[0, 5]]))

    @pytest.mark.parametrize(
        "moves", [[[1, 1]], [[-2, 0]], [[H, 0]], [[0, 1, 1]], [0, 1]]
    )
    def test_rejects_malformed_moves(self, moves):
        # i == j, a negative index, a half-held row, a wrong shape
        with pytest.raises(ValueError):
            c.Trajectory(3, np.array(moves), lazy=True)

    @pytest.mark.parametrize(
        "moves", [[[0.7, 1.2]], [["1", "0"]], [[True, False]], [[65537, 0]], [[-1, -1]]]
    )
    def test_rejects_moves_that_are_not_u16_records(self, moves):
        """Floats, strings and bools are not cast to rows, 65537 does not wrap
        to 1, and -1 is no second spelling of a hold; each names a row below
        this n, so only the record check refuses it."""
        with pytest.raises(ValueError, match=r"integers in 0\.\.65535"):
            c.Trajectory(70_000, moves, lazy=True)

    def test_half_hold_rejected_past_u16_rows(self):
        """At n = 70,000 row 0xFFFF exists, but a record naming it beside
        another row would read as a hold to the kernel's first-column mask."""
        for moves in ([[H, 0]], [[0, H]]):
            with pytest.raises(ValueError, match="distinct rows"):
                c.Trajectory(70_000, moves, lazy=True)

    def test_work_steps_counts_non_held(self):
        moves = np.array([[0, 1], [H, H], [1, 0], [H, H], [H, H]])
        traj = c.Trajectory(2, moves, lazy=True)
        assert traj.steps == 5 and traj.work_steps == 2
        # the non-held moves, in order: (0, 1) then (1, 0) differ from the reverse
        assert c.replay(traj) == c.replay(c.Trajectory(2, [[0, 1], [1, 0]]))
        assert c.replay(traj) != c.replay(c.Trajectory(2, [[1, 0], [0, 1]]))

    @pytest.mark.parametrize("lazy", [False, True])
    def test_work_steps_is_the_applied_count(self, lazy):
        traj, _ = c.run(5, 300, seed=4, lazy=lazy)
        assert traj.work_steps == np.count_nonzero(traj.moves[:, 0] != H)

    @pytest.mark.parametrize(
        "moves, lazy",
        [([[0, 1], [H, H], [0, 3]], True), ([[H, H], [3, 0]], True),
         ([[H, H], [0, 1]], False), ([[0, 1], [H, H]], False)],
    )
    def test_rejects_bad_rows_beside_holds(self, moves, lazy):
        """An out-of-range move next to a hold of a lazy trajectory, and a
        hold in a non-lazy one."""
        with pytest.raises(ValueError, match="distinct rows" if lazy else "held step"):
            c.Trajectory(3, np.array(moves), lazy)

    def test_moves_are_read_only_int_pairs(self):
        traj, _ = c.run(5, 20, seed=1)
        assert traj.moves.shape == (20, 2) and traj.moves.dtype == np.uint16
        with pytest.raises(ValueError):
            traj.moves[0, 0] = 1
        assert c.Trajectory(5, ()).moves.shape == (0, 2)

    def test_caller_array_is_copied(self):
        moves = np.array([[0, 1], [1, 2]], dtype=np.int64)
        traj = c.Trajectory(3, moves)
        view = moves.view()
        view.flags.writeable = False  # read-only, but its base is not
        other = c.Trajectory(3, view)
        moves[0] = [2, 0]
        assert traj.moves.tolist() == other.moves.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    def test_read_only_caller_array_is_copied(self, dtype):
        """An owned read-only array is copied too: its owner can make it
        writeable again and rewrite it after the checks."""
        moves = np.array([[0, 1]], dtype=dtype)
        moves.flags.writeable = False
        traj = c.Trajectory(2, moves)
        moves.flags.writeable = True
        moves[0] = [7, 7]
        assert traj.moves.tolist() == [[0, 1]]
        assert c.replay(traj) == g.BitMatrix(2, np.array([[3], [2]], dtype=np.uint64))


class TestKeyStream:
    @pytest.mark.parametrize("n", [2, 3, 64, 1024])
    def test_batched_draws_match_scalar_draw_pair(self, n):
        traj, _ = c.run(n, 500, seed=41)
        rng = g.derive_rng(41, c.STREAM_WALK)
        assert traj.moves.tolist() == [list(c.draw_pair(rng, n)) for _ in range(500)]

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_lazy_draws_match_scalar_coin_then_pair(self, n):
        traj, _ = c.run(n, 400, seed=8, lazy=True)
        rng = g.derive_rng(8, c.STREAM_WALK)
        want = [
            [H, H] if int(rng.integers(0, 2)) else list(c.draw_pair(rng, n))
            for _ in range(400)
        ]
        assert traj.moves.tolist() == want

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("npairs", [6, 1024 * 1023, 46342 * 46341])
    @pytest.mark.parametrize("t", [0, 2000])
    def test_lazy_moves_match_scalar_draws(self, t, npairs, buffered):
        """Values and final generator state; 46342 * 46341 > 2**31 skips about
        half its words."""
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        if buffered:
            rng.integers(0, 2**32, dtype=np.uint32)
            ref.integers(0, 2**32, dtype=np.uint32)
        steps, draws = [], []
        for s in range(t):
            if not int(ref.integers(0, 2)):
                steps.append(s)
                draws.append(int(ref.integers(0, npairs)))
        batches = list(c._lazy_moves(rng, npairs, t))
        assert [s for b, _ in batches for s in b] == steps
        assert [d for _, b in batches for d in b] == draws
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("npairs", [2**32, 65537 * 65536])
    def test_lazy_bound_from_2_32_raises(self, npairs):
        """NumPy draws such a bound from 64-bit words; the 32-bit parse would
        reject every word and never end."""
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            next(c._lazy_moves(rng, npairs, 5))
        assert rng.bit_generator.state == before

    def test_run_rejects_n_past_the_tvwk_limit(self):
        with pytest.raises(ValueError, match="65534"):
            c.run(65535, 1, 0)

    @pytest.mark.parametrize(
        "bitgen", [np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM]
    )
    @pytest.mark.parametrize("buffered", [False, True])
    def test_words32_match_single_draws(self, bitgen, buffered):
        """Each size's words, then the full state and the next words, equal
        those of one 32-bit draw at a time."""
        for size in [0, 1, 2, 3, 4, 5, 1000, 1001]:
            rng, ref = np.random.Generator(bitgen(size)), np.random.Generator(bitgen(size))
            if buffered:
                rng.integers(0, 2**32, dtype=np.uint32)
                ref.integers(0, 2**32, dtype=np.uint32)
            words = c._words32(rng, size)
            want = [ref.integers(0, 2**32, dtype=np.uint32) for _ in range(size)]
            assert words.dtype == np.uint32 and words.tolist() == want, (bitgen, size)
            assert same_state(rng.bit_generator.state, ref.bit_generator.state), (bitgen, size)
            assert c._words32(rng, 3).tolist() == ref.integers(0, 2**32, 3, np.uint32).tolist()

    def test_mt19937_rejected_before_any_draw(self):
        """Its 32-bit draws buffer no half word, so `_words32` cannot follow them."""
        rng = np.random.Generator(np.random.MT19937(1))
        before = rng.bit_generator.state
        for call in (lambda: c._words32(rng, 5), lambda: next(c._lazy_moves(rng, 6, 5))):
            with pytest.raises(ValueError, match="MT19937"):
                call()
            assert same_state(rng.bit_generator.state, before)

    def test_golden_protocol_keygen(self, tmp_path, capsys):
        # sha256 of the files written by
        # `tvwalk protocol keygen --n 1024 --t 100000 --seed 3`
        code = cli.cli_dispatch(
            ["protocol", "keygen", "--n", "1024", "--t", "100000", "--seed", "3",
             "--out", str(tmp_path)]
        )
        assert code == 0 and "applied=100000" in capsys.readouterr().out
        assert sha256(tmp_path / "key.gf2m") == (
            "235402a032488a17b56df3f2e68528c8f23bda3871db4f779b0ae8aa4a5a2ab8"
        )
        assert sha256(tmp_path / "secret.tvwk") == (
            "fafa79254ff71dead1db45fa71a8efeaaff511acb82b0139e0c26a3e14545d1f"
        )

    def test_golden_lazy_walk(self, tmp_path, capsys):
        # sha256 of the files written by `tvwalk walk --n 64 --t 1000 --seed 7 --lazy`
        traj, mat = tmp_path / "w.tvwk", tmp_path / "w.gf2m"
        code = cli.cli_dispatch(
            ["walk", "--n", "64", "--t", "1000", "--seed", "7", "--lazy",
             "--save-trajectory", str(traj), "--save-matrix", str(mat)]
        )
        assert code == 0 and "invertible=true" in capsys.readouterr().out
        assert sha256(traj) == (
            "c25998c51601fff3b33501d2aef9679f62bd3f096f95b429eb099d595dc41aa5"
        )
        assert sha256(mat) == (
            "9fea6a84c164ff9ac3e2f16cd108f686e527c6c7cd6e143c3dbf06bd83861a73"
        )


C = c._MOVE_CHUNK


class TestMoveKernel:
    @pytest.mark.parametrize("t", [0, 1, C - 1, C, C + 1, 2 * C + 7])
    def test_chunked_replay_equals_per_step_replay(self, t):
        """On n-bit matrix rows and on single bits, for a trajectory with no
        holds, whose last step of a chunk and first of the next must meet in
        order, and for a lazy one that holds at random and on both sides of
        the first boundary (steps C - 1 and C, between moves at C - 2 and
        C + 1), checked against a per-step loop that skips the holds."""
        n = 70  # rows past one 64-bit word
        rng = np.random.default_rng(t)
        moves = np.stack(c._decode(rng.integers(0, n * (n - 1), t), n), 1)
        held = rng.integers(0, 2, t).astype(bool)
        held[C - 2 : C + 2] = [False, True, True, False][: max(0, t - C + 2)]
        lazy_moves = np.where(held[:, None], H, moves)
        for traj in (c.Trajectory(n, moves), c.Trajectory(n, lazy_moves, lazy=True)):
            for start in ([1 << r for r in range(n)], [r % 2 for r in range(n)]):
                rows, want = list(start), list(start)
                c._apply_moves(rows, traj)
                for a, b in traj.moves.tolist():
                    if a != H:
                        want[a] ^= want[b]
                assert rows == want

    @pytest.mark.parametrize("n", [2, 3, 64, 1024])
    def test_decode_into_out_equals_decode(self, n):
        u = np.concatenate([np.arange(min(n * (n - 1), 5000)),
                            np.random.default_rng(n).integers(0, n * (n - 1), 5000)])
        moves = np.empty((len(u), 2), dtype=np.uint16)  # narrower than u, as in run()
        out = (moves[:, 0], moves[:, 1])
        i, j = c._decode(u, n, out=out)
        assert i is out[0] and j is out[1]
        want_i, want_j = c._decode(u, n)
        assert np.array_equal(moves[:, 0], want_i) and np.array_equal(moves[:, 1], want_j)


class TestProjection:
    """The k-column projection, advanced by the diagnostics' batched kernel."""

    @staticmethod
    def columns(words: np.ndarray, k: int) -> list:
        """First k bit columns of one packed state."""
        return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :k].tolist()

    def test_identity_projection(self):
        s = dg._identity_words(6, 3, 2)
        assert s.shape == (3, 6, 1)
        for b in range(3):
            assert self.columns(s[b], 2) == [[1, 0], [0, 1]] + [[0, 0]] * 4

    def test_full_projection_tracks_walk(self):
        """The k-column start walked by the kernel is the first k columns of
        the full walk under the same generator, for every walker."""
        for n, k in [(5, 1), (5, 3), (5, 5), (70, 65)]:
            full = dg._walk_full(n, 60, 4, g.derive_rng(77), False)
            s = dg._identity_words(n, 4, k)
            dg._walk_rows(s, 60, g.derive_rng(77), False)
            # the cutoff experiment's k = 1 form: one unpacked uint8 bit per row
            vec = np.zeros((4, n), dtype=np.uint8)
            vec[:, 0] = 1
            dg._walk_rows(vec, 60, g.derive_rng(77), False)
            for b in range(4):
                assert self.columns(s[b], k) == self.columns(full[b], k)
                assert vec[b, :, None].tolist() == self.columns(full[b], 1)

    def test_projection_keeps_full_rank_start_columns(self):
        s = dg._identity_words(8, 50, 3)
        dg._walk_rows(s, 200, g.derive_rng(5), False)
        assert (g.rank_words_batch(s, 3) == 3).all()

    @pytest.mark.parametrize("n", [2, 3, 5, 64, 130])
    def test_kernel_matches_chain_run(self, n):
        """The batched kernel and chain.run consume one stream identically."""
        walked = dg._walk_full(n, 300, 1, g.derive_rng(6, c.STREAM_WALK), False)[0]
        assert np.array_equal(walked, c.run(n, 300, seed=6)[1].words)


class TestTrajectoryFile:
    @given(params=run_params)
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, params, tmp_path_factory):
        n, t, seed, lazy = params
        traj, _ = c.run(n, t, seed, lazy)
        path = tmp_path_factory.mktemp("traj") / "walk.tvwk"
        c.save_trajectory(path, traj)
        back = c.load_trajectory(path)
        assert back.n == traj.n and back.lazy == traj.lazy
        assert np.array_equal(back.moves, traj.moves)
        assert c.replay(back) == c.replay(traj)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_bytes_survive_round_trip(self, tmp_path, lazy):
        """The file is the TVWK layout record by record, and saving what was
        loaded writes the same bytes."""
        traj, _ = c.run(1024, 2 * C + 7, seed=4, lazy=lazy)
        first, second = tmp_path / "a.tvwk", tmp_path / "b.tvwk"
        c.save_trajectory(first, traj)
        header = b"TVWK\x01" + struct.pack("<IQB", 1024, traj.steps, lazy)
        records = b"".join(struct.pack("<HH", i, j) for i, j in traj.moves.tolist())
        assert first.read_bytes() == header + records
        c.save_trajectory(second, c.load_trajectory(first))
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("lazy", [False, True])
    def test_loaded_moves_are_read_only(self, tmp_path, lazy):
        path = tmp_path / "t.tvwk"
        c.save_trajectory(path, c.run(6, 40, seed=2, lazy=lazy)[0])
        back = c.load_trajectory(path)
        assert back.moves.dtype == np.uint16
        with pytest.raises(ValueError):
            back.moves[0, 0] = 1

    def test_format_bytes(self, tmp_path):
        traj = c.Trajectory(3, np.array([[2, 0], [H, H]]), lazy=True)
        path = tmp_path / "t.tvwk"
        c.save_trajectory(path, traj)
        expected = (
            b"TVWK"
            + bytes([1])
            + (3).to_bytes(4, "little")
            + (2).to_bytes(8, "little")
            + bytes([1])
            + (2).to_bytes(2, "little")
            + (0).to_bytes(2, "little")
            + (0xFFFF).to_bytes(2, "little") * 2
        )
        assert path.read_bytes() == expected

    def test_hold_rejected_in_non_lazy_file(self, tmp_path):
        path = tmp_path / "bad.tvwk"
        data = (
            b"TVWK" + bytes([1]) + (3).to_bytes(4, "little") + (1).to_bytes(8, "little")
            + bytes([0]) + (0xFFFF).to_bytes(2, "little") * 2
        )
        path.write_bytes(data)
        with pytest.raises(ValueError, match="held step in a non-lazy trajectory"):
            c.load_trajectory(path)

    def test_hold_rejected_in_non_lazy_file_past_u16_rows(self, tmp_path):
        # At n = 70,000 row 0xFFFF exists, so only the repeated row tells the
        # record from a move; it is still named as a held step.
        path = tmp_path / "bad.tvwk"
        data = (
            b"TVWK" + bytes([1]) + (70_000).to_bytes(4, "little") + (1).to_bytes(8, "little")
            + bytes([0]) + (0xFFFF).to_bytes(2, "little") * 2
        )
        path.write_bytes(data)
        with pytest.raises(ValueError, match="held step in a non-lazy trajectory"):
            c.load_trajectory(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tvwk"
        path.write_bytes(b"XXXX" + bytes(14))
        with pytest.raises(ValueError):
            c.load_trajectory(path)

    def test_rejects_truncation(self, tmp_path):
        traj, _ = c.run(4, 10, seed=2)
        path = tmp_path / "t.tvwk"
        c.save_trajectory(path, traj)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ValueError):
            c.load_trajectory(path)

    def test_rejects_out_of_range_move(self, tmp_path):
        path = tmp_path / "bad.tvwk"
        data = (
            b"TVWK" + bytes([1]) + (2).to_bytes(4, "little") + (1).to_bytes(8, "little")
            + bytes([0]) + (7).to_bytes(2, "little") + (0).to_bytes(2, "little")
        )
        path.write_bytes(data)
        with pytest.raises(ValueError):
            c.load_trajectory(path)

    def test_rejects_truncated_header(self, tmp_path):
        # cut before the lazy byte, and after the magic alone
        path = tmp_path / "cut.tvwk"
        for data in (b"TVWK" + bytes([1]) + (3).to_bytes(4, "little") + bytes(8), b"TVWK"):
            path.write_bytes(data)
            with pytest.raises(ValueError, match="truncated"):
                c.load_trajectory(path)

    def test_rejects_lazy_flag_other_than_0_or_1(self, tmp_path):
        path = tmp_path / "bad.tvwk"
        data = (
            b"TVWK" + bytes([1]) + (3).to_bytes(4, "little") + (1).to_bytes(8, "little")
            + bytes([7]) + (0).to_bytes(2, "little") + (1).to_bytes(2, "little")
        )
        path.write_bytes(data)
        with pytest.raises(ValueError, match="lazy flag"):
            c.load_trajectory(path)


class TestTransientMemory:
    """Traced peaks at the protocol's n = 1024, t = 10**5: replay, decode, load
    and save hold no full-length copy of the moves beyond the trajectory's own."""

    N, T = 1024, 100_000

    @staticmethod
    def peak_mib(call) -> float:
        call()  # warm: lazy imports and caches are not the call's transients
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def secret(self):
        return c.run(self.N, self.T, seed=1)[0]

    @pytest.fixture(scope="class")
    def lazy_secret(self):
        return c.run(self.N, self.T, seed=1, lazy=True)[0]

    @pytest.fixture(scope="class")
    def challenge(self):
        x = g.BitVector.from_bits(np.random.default_rng(0).integers(0, 2, self.N, dtype=np.uint8))
        return pr.Challenge(x)

    def test_respond_honest(self, secret, challenge):
        assert self.peak_mib(lambda: pr.respond_honest(secret, challenge)) < 0.5

    def test_lazy_respond_honest(self, lazy_secret, challenge):
        """The kernel's per-chunk hold mask and a count of the non-held rows,
        with no copy of the non-held moves."""
        assert self.peak_mib(lambda: pr.respond_honest(lazy_secret, challenge)) < 0.25

    def test_lazy_replay(self, lazy_secret):
        """The n-row state and per-chunk masks and lists, as a non-lazy replay."""
        assert self.peak_mib(lambda: c.replay(lazy_secret)) < 0.6

    def test_lazy_trajectory_checks(self, lazy_secret):
        """Beyond the 0.38 MiB copy of the records that the trajectory keeps,
        validation masks over the two columns, with no copy of the live moves."""
        kept = lazy_secret.moves.nbytes / 2**20
        assert self.peak_mib(lambda: c.Trajectory(self.N, lazy_secret.moves, True)) - kept < 0.5

    def test_non_lazy_run(self):
        """The 0.76 MiB of draws, decoded straight into 0.38 MiB of u16
        records, and the trajectory's copy of those, with no int64 moves."""
        assert self.peak_mib(lambda: c.run(self.N, self.T, seed=1)) < 1.6

    def test_save_trajectory(self, secret, tmp_path):
        """The records are written as they are held: no cast, no copy."""
        assert self.peak_mib(lambda: c.save_trajectory(tmp_path / "s.tvwk", secret)) < 0.1

    def test_lazy_run(self):
        """The records, the trajectory's copy and validation masks, and one
        batch of `_MOVE_CHUNK` words as Python ints, with no list as long as
        the run: `_endpoint` replays the moves in place, a chunk at a time."""
        assert self.peak_mib(lambda: c.run(self.N, self.T, seed=1, lazy=True)) < 1.6

    def test_lazy_save_trajectory(self, lazy_secret, tmp_path):
        """Held steps are already hold records: nothing is cast or masked."""
        assert self.peak_mib(lambda: c.save_trajectory(tmp_path / "s.tvwk", lazy_secret)) < 0.1

    @pytest.mark.parametrize("lazy", [False, True])
    def test_load_trajectory(self, secret, lazy_secret, tmp_path, lazy):
        """The file's bytes and the trajectory's copy of its records, with no
        int64 widening and no hold remap."""
        path = tmp_path / "s.tvwk"
        c.save_trajectory(path, lazy_secret if lazy else secret)
        assert self.peak_mib(lambda: c.load_trajectory(path)) < 1.5

    def test_lazy_work_steps(self, lazy_secret):
        """A count of the non-held rows, with no copy of the applied moves."""
        assert self.peak_mib(lambda: lazy_secret.work_steps) < 0.25
