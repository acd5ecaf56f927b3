"""Seeded randomness: the array draw against the scalar draw it replaces."""

import hashlib
import math

import pytest

from tracepir.rand import SeededStream


def state(stream):
    return (stream._counter, stream._buffer, stream._bits)


class CountedKey:
    """Stands in for a stream's pre-keyed hash; every block hashed starts with one copy of it."""

    def __init__(self, keyed):
        self.keyed = keyed
        self.blocks = 0

    def copy(self):
        self.blocks += 1
        return self.keyed.copy()


def count_blocks(stream: SeededStream) -> CountedKey:
    counted = CountedKey(stream._keyed)
    stream._keyed = counted
    return counted


# 257 is just above a power of two, so about half its 9-bit groups are
# rejected.  For this stream, after 200 bits read and at 5 draws, the first
# estimate (the mean count of groups plus 4 standard deviations plus 8) falls
# short, and the doubling loop fetches more blocks in a second round.  Found
# by a search over labels, since the estimate is meant to fall short rarely.
SECOND_ROUND = (257, 200, 5, 42, "second-round/22970")


def first_round_blocks(bound: int, n: int, held: int) -> int:
    """The blocks randrange_array's first estimate fetches, with `held` bits buffered."""
    nbits = (bound - 1).bit_length() or 1
    span = 1 << nbits
    groups = (n * span + 4 * math.isqrt(n * (span - bound) * span)) // bound + 8
    return max(0, -(-(groups * nbits - held) // 256))


def check_parity(bound: int, held_bits: int, n: int, seed: int, label: str) -> int:
    """Assert the array draw equals n scalar draws, values and state; return the blocks it hashed."""
    scalar = SeededStream(seed, label)
    vector = SeededStream(seed, label)
    # a stream that has read bits already: 256 reads one whole block and
    # 300 crosses into a second one
    scalar.getbits(held_bits)
    vector.getbits(held_bits)
    expected = [scalar.randrange(bound) for _ in range(n)]
    held = vector._bits
    counted = count_blocks(vector)
    got = vector.randrange_array(bound, n)
    fetched = counted.blocks
    assert got.dtype.name == "int64"
    assert got.tolist() == expected
    assert state(vector) == state(scalar)
    assert fetched >= first_round_blocks(bound, n, held)
    assert vector.randrange(bound) == scalar.randrange(bound)
    return fetched


@pytest.mark.parametrize("bound", [1, 2, 13, 16, 17, 257, 2147483629, 2**63])
@pytest.mark.parametrize("held_bits", [0, 3, 200, 256, 300])
def test_randrange_array_matches_scalar_loop(bound, held_bits):
    for n in (0, 1, 5, 700, 798):
        check_parity(bound, held_bits, n, 42, f"parity/{bound}")


def test_randrange_array_second_round_matches_scalar_loop():
    bound, held_bits, n, seed, label = SECOND_ROUND
    stream = SeededStream(seed, label)
    stream.getbits(held_bits)
    held = stream._bits
    assert check_parity(*SECOND_ROUND) > first_round_blocks(bound, n, held)


# The product runs in the narrowest unsigned dtype that holds 2**nbits - 1:
# each pair sits on both sides of a dtype's width, and 2**53 + 1 is past
# what a float64 holds exactly.
@pytest.mark.parametrize("bound", [2**8, 2**8 + 1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**53 + 1])
def test_randrange_array_matches_scalar_loop_at_dtype_edges(bound):
    for held_bits in (0, 200):
        check_parity(bound, held_bits, 300, 7, f"edges/{bound}")


@pytest.mark.parametrize("held_bits", [0, 200])
def test_randrange_array_matches_scalar_loop_at_bulk_size(held_bits):
    check_parity(13, held_bits, 8192, 7, "edges/bulk")


# SHA-256 of the little-endian int64 bytes of each draw, and the stream state
# (counter, buffer, bits) after it, from SeededStream(2302, label) with
# held_bits read first.  Taken from the scalar-checked draw before its
# hashing and unpack were rewritten, so a change to the block hash shows
# here even though the parity tests share it with the code they check.
PINNED_DRAWS = [
    (13, 8192, "pin/bulk", 0,
     "96e830c1ef4babd182563ef3abe495bb1f4cb9922285afba67af2d353602f2bb", (156, 805051, 20)),
    (13, 8192, "pin/bulk", 200,
     "af53f4c7e2d5e472448f6af65d9ccbdab243aaf4aac7e5e5905d5309b27c4d9a", (157, 30930476424583, 48)),
    (2**31 - 1, 4096, "pin/mersenne", 0,
     "2b68337ff8cc0090d859b0de3d61155b792d1a053058cf964bcc732f0d56d6f6", (496, 0, 0)),
    (2**31 - 1, 4096, "pin/mersenne", 200,
     "ca2d66739da15fac435e199accb66741a778f175568a97b4fd7ce81d1c36079b", (497, 71537600814938172, 56)),
]


@pytest.mark.parametrize(
    "bound, n, label, held_bits, digest, after",
    PINNED_DRAWS,
    ids=[f"{label}-held{held}" for _, _, label, held, _, _ in PINNED_DRAWS],
)
def test_randrange_array_is_pinned_by_digest(bound, n, label, held_bits, digest, after):
    stream = SeededStream(2302, label)
    stream.getbits(held_bits)
    values = stream.randrange_array(bound, n)
    assert hashlib.sha256(values.astype("<i8").tobytes()).hexdigest() == digest
    assert state(stream) == after


def test_randrange_array_rejects_bad_bounds():
    stream = SeededStream(1)
    with pytest.raises(ValueError):
        stream.randrange_array(0, 3)
    with pytest.raises(ValueError):
        stream.randrange_array(2**63 + 1, 3)


@pytest.mark.parametrize("held_bits", [0, 3])
def test_randrange_array_refuses_a_negative_count_before_reading(held_bits):
    stream = SeededStream(1, "x")
    stream.getbits(held_bits)
    before = state(stream)
    with pytest.raises(ValueError, match="-1"):
        stream.randrange_array(13, -1)
    assert state(stream) == before
