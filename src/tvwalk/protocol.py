"""Time-based authentication on the walk: correctness plus an op deadline.

Key generation runs the walk for t steps from the identity; the final
matrix is the public key and the recorded move sequence is the secret.  A
challenge is a bit vector x; the response is y = (public key) x.  The
holder of the secret answers by replaying the moves as single-bit updates
on x (one bit operation per non-held move, at most t), while anyone else
must multiply by the public matrix at a cost of n^2 bit operations
(n * ceil(n/w) word operations on w-bit words).  The verifier accepts only
a correct answer whose declared cost meets the deadline, so whenever
t is well below n^2 the cost gap separates the two parties.

Costs are modeled as operation counts rather than wall-clock time: counts
are hardware-independent and keep the tests reproducible.  No adversary
beyond public-key matrix multiplication is modeled; probing public keys
with statistic distinguishers is available in the diagnostics module, with
no strength claims attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import Trajectory, _apply_moves, run
from .gf2core import BitMatrix, BitVector, OpCount, matvec, matvec_cost

__all__ = [
    "KeyPair",
    "Response",
    "VerifyResult",
    "keygen",
    "respond_honest",
    "respond_dishonest",
    "verify",
    "separation_report",
]


@dataclass(frozen=True)
class KeyPair:
    """Public walk endpoint and the secret move sequence that reaches it."""

    public: BitMatrix
    secret: Trajectory


@dataclass(frozen=True)
class Response:
    """Answer vector with its declared cost and the responder's role."""

    y: BitVector
    ops: OpCount
    role: str  # "honest" | "dishonest"


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of verification: both checks must pass to accept."""

    accepted: bool
    correct: bool
    within_deadline: bool


def keygen(n: int, t: int, seed: int, lazy: bool = False) -> KeyPair:
    """Run the walk for t steps; public key = final state, secret = moves.

    Deterministic in (n, t, seed, lazy); replaying the secret from the
    identity reproduces the public key bit for bit.
    """
    secret, public = run(n, t, seed, lazy)
    return KeyPair(public=public, secret=secret)


def respond_honest(secret: Trajectory, x: BitVector) -> Response:
    """Answer by replaying the secret moves as single-bit updates on x.

    The secret is all the honest prover holds.  Each non-held move costs one
    bit operation (x_i ^= x_j); held lazy steps change nothing and cost
    nothing.
    """
    if x.n != secret.n:
        raise ValueError("challenge dimension mismatch")
    bits = x.to_bits().tolist()
    _apply_moves(bits, secret)
    return Response(y=BitVector.from_bits(bits), ops=OpCount(secret.work_steps, 0), role="honest")


def respond_dishonest(public: BitMatrix, x: BitVector) -> Response:
    """Answer from the public key alone: a full matrix-vector product."""
    if x.n != public.n:
        raise ValueError("challenge dimension mismatch")
    return Response(y=matvec(public, x), ops=matvec_cost(public.n), role="dishonest")


def verify(public: BitMatrix, x: BitVector, r: Response, deadline_ops: int) -> VerifyResult:
    """Accept iff the answer equals (public key) x and cost meets the deadline.

    Acceptance is monotone in the deadline: anything accepted at D is
    accepted at any D' >= D.
    """
    correct = r.y == matvec(public, x)
    within = r.ops.bit_ops <= deadline_ops
    return VerifyResult(accepted=correct and within, correct=correct, within_deadline=within)


def separation_report(ns: list[int], t: int, word_bits: int = 64) -> list[dict]:
    """Cost-separation table; pure arithmetic, no simulation.

    One row per dimension: honest bit ops (= t), dishonest bit and word
    ops, and the bit-op ratio.  A ratio well above 1 is the premise that
    lets the verifier set a deadline separating the parties.
    """
    if not ns:
        raise ValueError("need at least one dimension")
    if word_bits < 1:
        raise ValueError(f"word size must be >= 1 bit (got {word_bits})")
    if t < 0:
        raise ValueError(f"time must be non-negative (got {t})")
    rows = []
    for n in ns:
        if n < 1:
            raise ValueError(f"dimension must be >= 1 (got {n})")
        cost = matvec_cost(n, word_bits)
        rows.append(
            {
                "n": n,
                "honest_bit_ops": t,
                "dishonest_bit_ops": cost.bit_ops,
                "dishonest_word_ops": cost.word_ops,
                "ratio": cost.bit_ops / t if t > 0 else float("inf"),
            }
        )
    return rows
