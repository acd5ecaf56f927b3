"""Seeded randomness: the array draw against the scalar draw it replaces."""

import pytest

from tracepir.rand import SeededStream


def state(stream):
    return (stream._counter, stream._buffer, stream._bits)


# 257 is just above a power of two, so about half its 9-bit groups are
# rejected.  For this stream, after 200 bits read and at 798 draws, the first
# estimate (the mean count of groups plus 64) falls short, and the doubling
# loop fetches more blocks in a second round.
SECOND_ROUND = (257, 200, 798)


def first_round_blocks(bound: int, n: int, held: int) -> int:
    """The blocks randrange_array's first estimate fetches, with `held` bits buffered."""
    nbits = (bound - 1).bit_length() or 1
    return max(0, -(-((n * 2**nbits // bound + 64) * nbits - held) // 256))


@pytest.mark.parametrize("bound", [1, 2, 13, 16, 17, 257, 2147483629, 2**63])
@pytest.mark.parametrize("held_bits", [0, 3, 200, 256, 300])
def test_randrange_array_matches_scalar_loop(monkeypatch, bound, held_bits):
    fetched = []
    block = SeededStream._block
    monkeypatch.setattr(SeededStream, "_block", lambda stream, c: fetched.append(c) or block(stream, c))
    for n in (0, 1, 5, 700, 798):
        scalar = SeededStream(42, f"parity/{bound}")
        vector = SeededStream(42, f"parity/{bound}")
        # a stream that has read bits already: 256 reads one whole block and
        # 300 crosses into a second one
        scalar.getbits(held_bits)
        vector.getbits(held_bits)
        expected = [scalar.randrange(bound) for _ in range(n)]
        held = vector._bits
        fetched.clear()
        got = vector.randrange_array(bound, n)
        assert got.dtype.name == "int64"
        assert got.tolist() == expected
        assert state(vector) == state(scalar)
        assert len(fetched) >= first_round_blocks(bound, n, held)
        if (bound, held_bits, n) == SECOND_ROUND:
            assert len(fetched) > first_round_blocks(bound, n, held)
        assert vector.randrange(bound) == scalar.randrange(bound)


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
