"""Seeded randomness: the array and batch draws against the scalar draws they replace."""

import hashlib
import math

import pytest

from tracepir.rand import SeededStream, randrange_rows


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
# short, and the draw fetches again over twice the groups.  Found
# by a search over labels, since the estimate is meant to fall short rarely.
SECOND_ROUND = (257, 200, 5, 42, "second-round/22970")


def first_round_blocks(bound: int, n: int, held: int) -> int:
    """The blocks the first estimate fetches for a stream with `held` bits buffered."""
    nbits = (bound - 1).bit_length() or 1
    span = 1 << nbits
    groups = (n * span + 4 * math.isqrt(n * (span - bound) * span)) // bound + 8
    return max(0, -(-(groups * nbits - held) // 256))


def rows_of(entry: str, label: str, held_bits: int) -> list:
    """The (label, bits read first) of each stream an entry point draws from.

    "array" and "rows-of-one" draw one stream, through randrange_array and
    randrange_rows; "rows" draws a batch whose streams hold different
    buffered bit counts: 256 reads one whole block, 300 crosses into a
    second one.
    """
    if entry != "rows":
        return [(label, held_bits)]
    return [(f"{label}/{row}", held) for row, held in enumerate((held_bits, 0, 3, 300, 256))]


ENTRY_POINTS = ["array", "rows-of-one", "rows"]


def check_parity(entry: str, bound: int, n: int, seed: int, rows: list) -> list:
    """Assert each row equals n scalar draws, values and state; return the blocks each row hashed."""
    scalars, vectors = [], []
    for label, held_bits in rows:
        scalar, vector = SeededStream(seed, label), SeededStream(seed, label)
        scalar.getbits(held_bits)
        vector.getbits(held_bits)
        scalars.append(scalar)
        vectors.append(vector)
    expected = [[scalar.randrange(bound) for _ in range(n)] for scalar in scalars]
    held = [vector._bits for vector in vectors]
    counted = [count_blocks(vector) for vector in vectors]
    if entry == "array":
        got = vectors[0].randrange_array(bound, n)[None]
    else:
        got = randrange_rows(vectors, bound, n)
    assert got.dtype.name == "int64"
    assert got.tolist() == expected
    for scalar, vector, bits, key in zip(scalars, vectors, held, counted):
        assert state(vector) == state(scalar)
        assert key.blocks >= first_round_blocks(bound, n, bits)
        assert vector.getbits(67) == scalar.getbits(67)
    return [key.blocks for key in counted]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bound", [1, 2, 13, 16, 17, 257, 2147483629, 2**31 - 1, 2**63])
@pytest.mark.parametrize("held_bits", [0, 3, 200, 256, 300])
def test_randrange_array_matches_scalar_loop(entry, bound, held_bits):
    for n in (0, 1, 5, 700, 798):
        check_parity(entry, bound, n, 42, rows_of(entry, f"parity/{bound}", held_bits))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_randrange_array_second_round_matches_scalar_loop(entry):
    bound, held_bits, n, seed, label = SECOND_ROUND
    rows = [(label, held_bits)]
    if entry == "rows":  # the short row sits between two rows that fetch enough at once
        rows = [("second-round/first", 0), *rows, ("second-round/last", 300)]
    # bits a fresh stream holds after reading held_bits
    first_round = [first_round_blocks(bound, n, -read % 256) for _, read in rows]
    alone = [check_parity("array", bound, n, seed, [row])[0] for row in rows]
    assert [blocks > first for blocks, first in zip(alone, first_round)] == [name == label for name, _ in rows]
    # one short row draws the whole batch again
    fetched = check_parity(entry, bound, n, seed, rows)
    assert all(blocks > first for blocks, first in zip(fetched, first_round))


# The values are read in uint64 windows of eight bytes: each pair sits on
# both sides of a byte width, 2**53 + 1 is past what a float64 holds
# exactly, and above 2**57 a group can span nine bytes.
@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "bound", [2**8, 2**8 + 1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**53 + 1, 2**57, 2**57 + 1, 2**62 + 1]
)
def test_randrange_array_matches_scalar_loop_at_dtype_edges(entry, bound):
    for held_bits in (0, 200):
        check_parity(entry, bound, 300, 7, rows_of(entry, f"edges/{bound}", held_bits))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("held_bits", [0, 200])
def test_randrange_array_matches_scalar_loop_at_bulk_size(entry, held_bits):
    check_parity(entry, 13, 8192, 7, rows_of(entry, "edges/bulk", held_bits))


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
    for bound in (0, 2**63 + 1):
        with pytest.raises(ValueError):
            stream.randrange_array(bound, 3)
        with pytest.raises(ValueError):
            randrange_rows([stream], bound, 3)
    assert randrange_rows([], 13, 4).shape == (0, 4)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("held_bits", [0, 3])
def test_randrange_array_refuses_a_negative_count_before_reading(entry, held_bits):
    streams = []
    for label, read in rows_of(entry, "x", held_bits):
        streams.append(SeededStream(1, label))
        streams[-1].getbits(read)
    before = [state(stream) for stream in streams]
    with pytest.raises(ValueError, match="-1"):
        if entry == "array":
            streams[0].randrange_array(13, -1)
        else:
            randrange_rows(streams, 13, -1)
    assert [state(stream) for stream in streams] == before


def test_randrange_excluding_refuses_an_excluded_value_outside_the_range():
    # randrange_excluding(5, 7) drew below 4 and shifted nothing, so 4 never came
    stream = SeededStream(1, "excluding")
    for excluded in (-1, 5, 7):
        with pytest.raises(ValueError, match=f"excluded value {excluded} outside"):
            stream.randrange_excluding(5, excluded)
    assert state(stream) == state(SeededStream(1, "excluding"))  # refused before a draw
    assert {stream.randrange_excluding(5, 2) for _ in range(200)} == {0, 1, 3, 4}
