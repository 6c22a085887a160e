"""Timed authentication: keygen, responders, verification, separation."""

import numpy as np
import pytest

from tvwalk import gf2core as g
from tvwalk import protocol as pr
from tvwalk.chain import load_trajectory, replay, save_trajectory


def random_challenge(n, rng):
    return g.BitVector(n, g.random_bit_words(rng, (1,), n)[0])


class TestKeygen:
    def test_zero_steps_gives_identity_key(self):
        kp = pr.keygen(5, 0, seed=1)
        assert kp.public == g.BitMatrix.identity(5)
        assert kp.secret.steps == 0

    def test_deterministic(self):
        a = pr.keygen(16, 200, seed=9)
        b = pr.keygen(16, 200, seed=9)
        assert a.public == b.public and np.array_equal(a.secret.moves, b.secret.moves)
        assert pr.keygen(16, 200, seed=10).public != a.public

    def test_secret_replays_to_public(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            t = int(rng.integers(0, 300))
            kp = pr.keygen(n, t, seed=int(rng.integers(0, 2**31)))
            assert replay(kp.secret) == kp.public

    def test_large_key_stays_invertible(self):
        kp = pr.keygen(256, 100_000, seed=4)
        assert g.is_invertible(kp.public)

    def test_lazy_keygen_records_holds(self):
        kp = pr.keygen(8, 400, seed=3, lazy=True)
        assert kp.secret.lazy
        assert kp.secret.work_steps < 400
        assert replay(kp.secret) == kp.public


class TestResponders:
    def test_honest_identity_echoes_challenge(self):
        kp = pr.keygen(8, 0, seed=0)
        rng = g.derive_rng(1)
        ch = random_challenge(8, rng)
        r = pr.respond_honest(kp.secret, ch)
        assert r.y == ch
        assert r.ops == g.OpCount(0, 0)
        assert r.role == "honest"

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_honest_matches_matrix_action(self, n):
        kp = pr.keygen(n, 120, seed=5)
        rng = g.derive_rng(33, n)
        for _ in range(25):
            ch = random_challenge(n, rng)
            rh = pr.respond_honest(kp.secret, ch)
            rd = pr.respond_dishonest(kp.public, ch)
            assert rh.y == rd.y == g.matvec(kp.public, ch)

    def test_loaded_secret_answers_as_loaded_key(self, tmp_path):
        n = 1024
        kp = pr.keygen(n, 100_000, seed=5)
        save_trajectory(tmp_path / "secret.tvwk", kp.secret)
        g.save_matrix(tmp_path / "key.gf2m", kp.public)
        secret = load_trajectory(tmp_path / "secret.tvwk")
        key = g.load_matrix(tmp_path / "key.gf2m")
        rng = np.random.default_rng(8)
        for _ in range(4):
            c = random_challenge(n, rng)
            assert pr.respond_honest(secret, c).y == g.matvec(key, c)

    def test_honest_cost_is_work_steps(self):
        kp = pr.keygen(1024, 500_000, seed=6)
        ch = random_challenge(1024, g.derive_rng(2))
        r = pr.respond_honest(kp.secret, ch)
        assert r.ops.bit_ops == kp.secret.work_steps == 500_000
        assert r.ops.word_ops == 0

    def test_dishonest_cost_is_matrix_vector(self):
        kp = pr.keygen(1024, 10, seed=7)
        ch = random_challenge(1024, g.derive_rng(3))
        r = pr.respond_dishonest(kp.public, ch)
        assert r.ops == g.matvec_cost(1024)
        assert r.ops.bit_ops == 1024 * 1024
        assert r.ops.word_ops == 1024 * 16
        assert r.role == "dishonest"

    def test_lazy_honest_skips_held_steps(self):
        kp = pr.keygen(16, 800, seed=8, lazy=True)
        ch = random_challenge(16, g.derive_rng(4))
        r = pr.respond_honest(kp.secret, ch)
        assert r.ops.bit_ops == kp.secret.work_steps < 800
        assert r.y == g.matvec(kp.public, ch)

    def test_dimension_mismatch_rejected(self):
        kp = pr.keygen(8, 10, seed=0)
        ch = random_challenge(9, g.derive_rng(5))
        with pytest.raises(ValueError):
            pr.respond_honest(kp.secret, ch)
        with pytest.raises(ValueError):
            pr.respond_dishonest(kp.public, ch)
        r = pr.respond_dishonest(kp.public, random_challenge(8, g.derive_rng(6)))
        with pytest.raises(ValueError):
            pr.verify(kp.public, ch, r, deadline_ops=10**9)


@pytest.fixture(scope="module")
def setup():
    kp = pr.keygen(8, 60, seed=5)
    ch = random_challenge(8, g.derive_rng(33))
    return kp, ch


class TestVerify:
    def test_honest_accepted(self, setup):
        kp, ch = setup
        v = pr.verify(kp.public, ch, pr.respond_honest(kp.secret, ch), deadline_ops=60)
        assert v.accepted and v.correct and v.within_deadline

    def test_correct_but_slow_rejected(self, setup):
        kp, ch = setup
        r = pr.respond_dishonest(kp.public, ch)  # 64 bit ops > deadline 63
        v = pr.verify(kp.public, ch, r, deadline_ops=63)
        assert not v.accepted and v.correct and not v.within_deadline

    def test_wrong_answer_rejected(self, setup):
        kp, ch = setup
        r = pr.respond_honest(kp.secret, ch)
        bad = r.y.words.copy()
        bad[0] ^= np.uint64(1)
        forged = pr.Response(g.BitVector(8, bad), r.ops, "honest")
        v = pr.verify(kp.public, ch, forged, deadline_ops=10**9)
        assert not v.accepted and not v.correct and v.within_deadline

    def test_acceptance_monotone_in_deadline(self, setup):
        kp, ch = setup
        r = pr.respond_dishonest(kp.public, ch)
        accepted = [
            pr.verify(kp.public, ch, r, deadline_ops=d).accepted
            for d in (10, 63, 64, 1000)
        ]
        assert accepted == sorted(accepted)  # False before True, never back


class TestSeparationReport:
    def test_ratio_at_tenth_of_matrix_cost(self):
        rows = pr.separation_report([64, 1024], 409)
        by_n = {row["n"]: row for row in rows}
        assert by_n[64]["honest_bit_ops"] == 409
        assert by_n[64]["dishonest_bit_ops"] == 64 * 64
        assert by_n[64]["ratio"] == pytest.approx(4096 / 409, rel=1e-12)
        assert by_n[1024]["dishonest_word_ops"] == 1024 * 16
        assert by_n[1024]["ratio"] == pytest.approx(1048576 / 409, rel=1e-12)

    def test_ratio_one_when_trajectory_matches_matrix_cost(self):
        (row,) = pr.separation_report([64], 64 * 64)
        assert row["ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_zero_length_trajectory_gives_infinite_ratio(self):
        (row,) = pr.separation_report([1024], 0)
        assert row["ratio"] == float("inf")

    def test_accepts_single_dimension(self):
        assert len(pr.separation_report([32], 10)) == 1

    def test_word_cost_follows_word_size(self):
        (row,) = pr.separation_report([64], 10, word_bits=32)
        assert row["dishonest_word_ops"] == 64 * 2

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=r"non-negative \(got -5\)"):
            pr.separation_report([64], -5)

    def test_empty_dimension_list_rejected(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            pr.separation_report([], 10)
