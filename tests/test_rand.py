"""Seeded randomness: the array draw against the scalar draw it replaces."""

import pytest

from tracepir.rand import SeededStream


def state(stream):
    return (stream._counter, stream._buffer, stream._bits)


@pytest.mark.parametrize("bound", [2, 13, 17, 2147483629])
@pytest.mark.parametrize("held_bits", [0, 3, 200])
def test_randrange_array_matches_scalar_loop(bound, held_bits):
    for n in (0, 1, 5, 700):
        scalar = SeededStream(42, f"parity/{bound}")
        vector = SeededStream(42, f"parity/{bound}")
        # a stream that already holds bits in its buffer
        scalar.getbits(held_bits)
        vector.getbits(held_bits)
        expected = [scalar.randrange(bound) for _ in range(n)]
        got = vector.randrange_array(bound, n)
        assert got.dtype.name == "int64"
        assert got.tolist() == expected
        assert state(vector) == state(scalar)
        assert vector.randrange(bound) == scalar.randrange(bound)


def test_randrange_array_rejects_bad_bounds():
    stream = SeededStream(1)
    with pytest.raises(ValueError):
        stream.randrange_array(0, 3)
    with pytest.raises(ValueError):
        stream.randrange_array(2**63 + 1, 3)
