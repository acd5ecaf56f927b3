"""Deterministic counter-mode randomness.

Blocks are SHA-256(key || counter) with the key derived from an integer
seed and a path label, so runs are reproducible across platforms and
Python versions.  The bits of each block are consumed least significant
first, the block read as one big-endian integer.  Values are mapped to
bounded ranges by rejection sampling, which keeps every draw exactly
uniform.  Child streams forked with distinct labels are independent and
order-insensitive.

Cost.  Stream key and counter fit one SHA-256 input block, so a block
is one compression.  ``_keyed`` feeds the key to SHA-256 once per
stream, and each block copies that state, feeds its counter and takes
the digest, inlined in ``getbits`` and in ``randrange_array``: 159
blocks took 76.0 us this way against 98.6 us for SHA-256(key ||
counter) (in-process medians of 41 alternating rounds, 2-CPU Xeon).
The rest of an array draw is in the ``randrange_array`` docstring.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

# The first fetch of randrange_array covers the mean number of groups plus
# this many standard deviations, plus _SLACK_GROUPS, so a second round is rare.
_SPREAD_SDS = 4
_SLACK_GROUPS = 8


@functools.cache
def _weights(nbits: int) -> np.ndarray:
    """2**j for j < nbits, in the narrowest unsigned dtype that holds 2**nbits - 1."""
    return np.left_shift(1, np.arange(nbits, dtype=np.uint64)).astype(np.min_scalar_type((1 << nbits) - 1))


class SeededStream:
    def __init__(self, seed: int, label: str = ""):
        self.seed = int(seed)
        self.label = label
        self._counter = 0
        self._buffer = 0
        self._bits = 0

    @functools.cached_property
    def _keyed(self):
        """SHA-256 fed the stream key, copied for each block.

        Derived when the first block is read, so a stream that only forks
        hashes nothing.
        """
        key = hashlib.sha256(b"tracepir:" + str(self.seed).encode() + b"/" + self.label.encode()).digest()
        return hashlib.sha256(key)

    def fork(self, label: str) -> "SeededStream":
        """Independent child stream addressed by a path label."""
        return SeededStream(self.seed, f"{self.label}/{label}")

    def getbits(self, nbits: int) -> int:
        while self._bits < nbits:
            block = self._keyed.copy()
            block.update(self._counter.to_bytes(8, "big"))
            self._buffer |= int.from_bytes(block.digest(), "big") << self._bits
            self._counter += 1
            self._bits += 256
        value = self._buffer & ((1 << nbits) - 1)
        self._buffer >>= nbits
        self._bits -= nbits
        return value

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbits = (bound - 1).bit_length() or 1
        while True:
            value = self.getbits(nbits)
            if value < bound:
                return value

    def randrange_array(self, bound: int, n: int) -> np.ndarray:
        """n draws of randrange(bound) as an int64 array, in the same order.

        The stream is left in the state n sequential randrange calls leave:
        the blocks those calls would have fetched are consumed, and the
        bits after the last accepted group stay buffered.  The held bits
        and the fetched blocks are joined into one Python int, the way
        ``getbits`` joins them, and unpacked once into nbits-wide groups;
        what the draws leave of it becomes the buffer.  A negative n
        raises ValueError, as a bad bound does, before any bit is read.

        Cost model, with p = bound / 2**nbits the chance that a group is
        accepted (in-process medians on a 2-CPU Xeon):
        - The groups that n acceptances take have mean n / p and standard
          deviation sqrt(n * (1 - p)) / p.  The first fetch covers the mean
          plus 4 deviations plus 8 groups; a later round doubles the
          groups, hashes only the blocks it adds and unpacks the whole
          stream again.  For 8,192 draws below 13 (a ``bulk`` query) the
          first fetch is 161 blocks and no round followed it for 2,000
          seeds, where the mean plus 64 groups (1.3 deviations) took 159
          and a second round for 42 of them; for 524,288 draws (m =
          65536) the old slack ran one for 45 of 100 seeds.  For 24 draws
          below 17 the fetch is 2 blocks, not 3, and for 12 below 11 it
          is 1, not 2.
        - Each group's bits are summed against cached weights in the
          narrowest unsigned dtype that holds 2**nbits - 1 (uint8 for
          q <= 256), and only the n accepted values become int64.  At
          ``bulk`` size that took 63.2 us against 75.5 us for an int64
          product.  A float32 BLAS product was faster there but slower
          for a few dozen draws, and is exact only to 24 bits.
        - A whole draw, against the mean-plus-64 draw with an int64
          product: 173 against 216 us for 8,192 draws below 13, 11.3
          against 14.4 us for 24 below 17, and 10.6 against 16.4 ms for
          524,288 below 13.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 2**63:
            raise ValueError("bound does not fit an int64 array")
        if n < 0:
            raise ValueError(f"cannot draw {n} values")
        nbits = (bound - 1).bit_length() or 1
        span = 1 << nbits
        weights = _weights(nbits)
        groups = (n * span + _SPREAD_SDS * math.isqrt(n * (span - bound) * span)) // bound + _SLACK_GROUPS
        held, first = self._bits, self._counter
        stream, fetched = self._buffer, 0
        while True:
            wanted = -(-(groups * nbits - held) // 256)
            if wanted > fetched:
                copy = self._keyed.copy
                blocks = []
                for counter in range(first + fetched, first + wanted):
                    block = copy()
                    block.update(counter.to_bytes(8, "big"))
                    blocks.append(block.digest())
                stream |= int.from_bytes(b"".join(reversed(blocks)), "big") << held + 256 * fetched
                fetched = wanted
            size = held + 256 * fetched
            bits = np.unpackbits(
                np.frombuffer(stream.to_bytes(-(-size // 8), "little"), np.uint8), bitorder="little"
            )
            usable = size // nbits
            values = bits[: usable * nbits].reshape(usable, nbits) @ weights
            accepted = (values < bound).nonzero()[0]
            if len(accepted) >= n:
                break
            groups *= 2
        consumed = (int(accepted[n - 1]) + 1 if n else 0) * nbits
        taken = max(0, -(-(consumed - held) // 256))
        self._counter += taken
        self._bits = held + 256 * taken - consumed
        self._buffer = stream >> consumed & ((1 << self._bits) - 1)
        return values[accepted[:n]].astype(np.int64)

    def randrange_excluding(self, bound: int, excluded: int) -> int:
        """Uniform over [0, bound) minus one excluded value."""
        if bound < 2:
            raise ValueError("need at least two values to exclude one")
        value = self.randrange(bound - 1)
        return value + 1 if value >= excluded else value

    def field_element(self, field):
        """Uniform element of a PrimeField (int) or ExtField (tuple)."""
        if hasattr(field, "s"):
            return tuple(self.randrange(field.q) for _ in range(field.s))
        return self.randrange(field.q)

    def sample(self, n: int, count: int) -> tuple:
        """Uniform `count`-subset of range(n), returned sorted."""
        if count > n:
            raise ValueError("sample larger than population")
        pool = list(range(n))
        picked = []
        for i in range(count):
            j = self.randrange(n - i)
            picked.append(pool.pop(j))
        return tuple(sorted(picked))
