"""Deterministic counter-mode randomness.

Blocks are SHA-256(key || counter) with the key derived from an integer
seed and a path label, so runs are reproducible across platforms and
Python versions.  The bits of each block are consumed least significant
first, the block read as one big-endian integer.  Values are mapped to
bounded ranges by rejection sampling, which keeps every draw exactly
uniform.  Child streams forked with distinct labels are independent and
order-insensitive.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


class SeededStream:
    def __init__(self, seed: int, label: str = ""):
        self.seed = int(seed)
        self.label = label
        self._counter = 0
        self._buffer = 0
        self._bits = 0

    @functools.cached_property
    def _key(self) -> bytes:
        """Derived when the first block is read, so a stream that only forks hashes nothing."""
        return hashlib.sha256(b"tracepir:" + str(self.seed).encode() + b"/" + self.label.encode()).digest()

    def fork(self, label: str) -> "SeededStream":
        """Independent child stream addressed by a path label."""
        return SeededStream(self.seed, f"{self.label}/{label}")

    def _block(self, counter: int) -> bytes:
        return hashlib.sha256(self._key + counter.to_bytes(8, "big")).digest()

    def _refill(self):
        block = self._block(self._counter)
        self._counter += 1
        self._buffer |= int.from_bytes(block, "big") << self._bits
        self._bits += 256

    def getbits(self, nbits: int) -> int:
        while self._bits < nbits:
            self._refill()
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
        ``_refill`` joins them, and unpacked once into nbits-wide groups;
        what the draws leave of it becomes the buffer.  A negative n
        raises ValueError, as a bad bound does, before any bit is read.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 2**63:
            raise ValueError("bound does not fit an int64 array")
        if n < 0:
            raise ValueError(f"cannot draw {n} values")
        nbits = (bound - 1).bit_length() or 1
        weights = np.left_shift(1, np.arange(nbits, dtype=np.int64))
        # a value takes 2**nbits / bound < 2 groups on average: start from
        # that mean plus slack, and double until n values are accepted
        groups = n * 2**nbits // bound + 64
        blocks = []
        while True:
            wanted = -(-(groups * nbits - self._bits) // 256)
            blocks += [self._block(self._counter + c) for c in range(len(blocks), wanted)]
            size = self._bits + 256 * len(blocks)
            stream = self._buffer | int.from_bytes(b"".join(reversed(blocks)), "big") << self._bits
            bits = np.unpackbits(
                np.frombuffer(stream.to_bytes(-(-size // 8), "little"), np.uint8), bitorder="little"
            )
            usable = size // nbits
            values = bits[: usable * nbits].reshape(usable, nbits).astype(np.int64) @ weights
            accepted = (values < bound).nonzero()[0]
            if len(accepted) >= n:
                break
            groups *= 2
        consumed = (int(accepted[n - 1]) + 1 if n else 0) * nbits
        fetched = max(0, -(-(consumed - self._bits) // 256))
        self._counter += fetched
        self._bits += 256 * fetched - consumed
        self._buffer = stream >> consumed & ((1 << self._bits) - 1)
        return values[accepted[:n]]

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
