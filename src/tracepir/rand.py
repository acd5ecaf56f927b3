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
the digest, inlined in ``getbits`` and in the row draw behind
``randrange_array`` and ``randrange_rows``: 159 blocks took 76.0 us
this way against 98.6 us for SHA-256(key || counter) (in-process
medians of 41 alternating rounds, 2-CPU Xeon).  The rest of an array
draw, and what drawing B streams at once saves, is in the
``randrange_rows`` docstring.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

# The first fetch of a row draw covers the mean number of groups plus this
# many standard deviations, plus _SLACK_GROUPS, so a second round is rare.
_SPREAD_SDS = 4
_SLACK_GROUPS = 8
_WINDOW = np.dtype("<u8")


@functools.lru_cache(maxsize=8)
def _group_positions(bound: int, groups: int) -> tuple:
    """Where each of a row's first `groups` groups starts, and the arrays a draw below `bound` tests with.

    Returns (byte, bit shift, mask, bound).  With nbits-wide groups,
    group g starts at bit g * nbits, so it is the little-endian 8-byte
    window at byte g * nbits // 8 shifted right by g * nbits % 8 and
    masked to nbits bits.  The mask and the bound are 0-d uint64 arrays,
    which numpy applies faster than Python or numpy scalars (about
    0.3 us less per operation).  A draw of one size asks for the same
    groups every time; an entry holds 16 bytes a group, read-only since
    every draw shares it.
    """
    nbits = (bound - 1).bit_length() or 1
    starts = np.arange(0, groups * nbits, nbits)
    byte, shift = starts >> 3, (starts & 7).astype(np.uint64)
    mask, limit = np.array((1 << nbits) - 1, np.uint64), np.array(bound, np.uint64)
    for array in (byte, shift, mask, limit):
        array.flags.writeable = False
    return byte, shift, mask, limit


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

        ``randrange_rows`` of this one stream: the stream is left in the
        state n sequential randrange calls leave, and a negative n raises
        ValueError, as a bad bound does, before any bit is read.
        """
        return _draw_rows((self,), bound, n)

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


def randrange_rows(streams, bound: int, n: int) -> np.ndarray:
    """n draws of randrange(bound) from each stream, as a (len(streams), n) int64 array.

    Row i holds what n sequential randrange calls on streams[i] return,
    and streams[i] is left as they leave it: the blocks those calls would
    have fetched are consumed, and the bits after the last accepted group
    stay buffered.  A negative n raises ValueError, as a bad bound does,
    before any bit is read.  ``SeededStream.randrange_array`` is the
    same draw of one stream.

    Cost model, with p = bound / 2**nbits the chance that a group is
    accepted (in-process medians of 41 alternating rounds on a 2-CPU
    x86-64 host, keys derived beforehand):
    - The groups that n acceptances take have mean n / p and standard
      deviation sqrt(n * (1 - p)) / p.  The first fetch covers the mean
      plus 4 deviations plus 8 groups for every row; if a row falls
      short, every row is drawn again over twice the groups, its blocks
      hashed again.  For 8,192 draws below 13 (a ``bulk`` query) the
      first fetch is 161 blocks and no second round followed it for
      2,000 seeds, where the mean plus 64 groups (1.3 deviations) took
      159 and a second round for 42 of them; for 524,288 draws (m =
      65536) that slack ran one for 45 of 100 seeds.  For 24 draws
      below 17 the fetch is 2 blocks, and for 12 below 11 it is 1.
    - Each row is written as little-endian bytes, and each group is one
      unaligned uint64 window of them, shifted and masked, at byte and
      shift positions cached per draw size; the values are tested
      against the bound in one pass and gathered in one take.  This
      replaced an unpack into bits and a product with the powers of 2:
      a draw of 8,192 below 13 took 164 against 195 us, and one of 24
      below 17 took 9.5 against 10.6 us.  In a session, where the draw
      runs cold between other stages, it is at parity: 21.9 against
      22.0 us at (17,1,2,8; m=2) and 35.8 against 36.7 us at (11,1,2,8;
      m=2), medians over 1,000 sessions.
    - B streams share the windows, the acceptance pass and the gather,
      and each adds its hashing and its state.  Drawing 24 values below
      17 from each of 20 streams took 103 against 216 us as 20 separate
      draws, and from 85 streams 406 against 988 us; 2 streams were at
      parity (20.1 against 19.9 us).  Two streams of 8,192 draws took
      638 against 481 us: past 128 KB an array is fresh memory, and its
      page faults dominate.
    """
    return _draw_rows(streams, bound, n).reshape(len(streams), n)


def _draw_rows(streams, bound: int, n: int, groups: int | None = None) -> np.ndarray:
    """The draws of randrange_rows, row after row, as one flat array.

    A first call checks the bound and n and reads the mean number of
    groups plus _SPREAD_SDS deviations plus _SLACK_GROUPS from each row;
    `groups` is given only to draw again.  Each stream's held bits and
    the blocks after them are joined into one Python int, the way
    ``getbits`` joins them, and written as one row of little-endian
    bytes.  The first `groups` groups of every row are read at once from
    unaligned 8-byte windows of those bytes and tested against the bound
    in one pass, and each row's first n acceptances are gathered in one
    take.  What a row leaves of its int becomes its buffer.  If any row
    has fewer than n acceptances, no stream is changed and every row is
    drawn again over twice the groups.
    """
    nbits = (bound - 1).bit_length() or 1
    if groups is None:
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 2**63:
            raise ValueError("bound does not fit an int64 array")
        if n < 0:
            raise ValueError(f"cannot draw {n} values")
        if not streams:
            return np.zeros(0, np.int64)
        span = 1 << nbits
        groups = (n * span + _SPREAD_SDS * math.isqrt(n * (span - bound) * span)) // bound + _SLACK_GROUPS
    rows = len(streams)
    # a stream holds fewer than 256 bits, so every row fits bits + 256 bits;
    # the zero bytes after them hold the windows that start at its last group
    width = (groups * nbits + 256) // 8 + 16
    held, joined, data = [], [], []
    for stream in streams:
        start = stream._bits
        copy, first = stream._keyed.copy, stream._counter
        blocks = []
        for counter in range(first, first - (-(groups * nbits - start) // 256)):
            block = copy()
            block.update(counter.to_bytes(8, "big"))
            blocks.append(block.digest())
        whole = stream._buffer | int.from_bytes(b"".join(reversed(blocks)), "big") << start
        held.append(start)
        joined.append(whole)
        data.append(whole.to_bytes(width, "little"))
    data = b"".join(data)
    byte, shift, mask, limit = _group_positions(bound, groups)
    # windows[i, j] is bytes j to j + 7 of row i as one little-endian uint64
    if rows > 1:
        windows = np.ndarray((rows, width - 7), _WINDOW, data, 0, (width, 1))
        values = windows.take(byte, axis=-1)
    else:
        # one row reads cheaper as a 1-D array, and fewer than about 128
        # groups cheaper by index than by take (slower past it: 7.9 against
        # 3.1 us at 1,024)
        windows = np.ndarray((width - 7,), _WINDOW, data, 0, (1,))
        values = windows[byte] if groups < 128 else windows.take(byte)
    values >>= shift
    if nbits > 57:  # the window misses a group's top bits; the one 7 bytes on holds them
        values |= windows.take(byte + 7, axis=-1) >> shift << np.uint64(56)
    values &= mask
    values = values.ravel()  # row i's groups are values[i * groups : (i + 1) * groups]
    accepted = (values < limit).nonzero()[0]
    if rows > 1:
        starts = accepted.searchsorted(range(0, rows * groups, groups)).tolist()
        stops = starts[1:] + [len(accepted)]
        short = any(stop - start < n for start, stop in zip(starts, stops))
    else:
        short = len(accepted) < n
    if short:
        return _draw_rows(streams, bound, n, 2 * groups)
    picks = accepted[np.add.outer(starts, np.arange(n))].ravel() if rows > 1 else accepted[:n]
    lasts = picks[n - 1 :: n].tolist() if n else [-1] * rows
    for stream, start, whole, last in zip(streams, held, joined, lasts):
        consumed = (last % groups + 1) * nbits if n else 0
        taken = max(0, -(-(consumed - start) // 256))
        stream._counter += taken
        stream._bits = start + 256 * taken - consumed
        stream._buffer = whole >> consumed & ((1 << stream._bits) - 1)
    # every value is below bound <= 2**63, so its uint64 bits read the same as int64
    return values[picks].view(np.int64)
