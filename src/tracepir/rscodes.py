"""Reed-Solomon / Generalized Reed-Solomon machinery.

A GRS code is the set of words (m_1 h(x_1), ..., m_n h(x_n)) for message
polynomials h of degree below the dimension.  Decoding is errors-only and
syndrome first.  The n - dim check rows y_i x_i^e, with y_i the inverse
of m_i prod_{l != i}(x_i - x_l), give the syndromes of the received
word; a zero syndrome means the word is a codeword and is returned as it
is.  Otherwise a locator finds the error positions, the error values
there solve the first tau syndromes, a tau x tau system for
tau = floor((n - dim) / 2), the word minus its error is re-encoded
through its first dim symbols, and the distance guard compares the
codeword with the word.

There are two locators.  Every error of weight at most tau has
syndromes of its own, so for a code of at most 63 points whose
q^(n - dim) syndromes fit SYNDROME_TABLE_ENTRIES, one cached table
maps the syndrome index sum_e S_e q^e (below the budget) to the id of
the error's support, or to -1 where no codeword lies within tau, and
holds each support's padded positions and error-value system by id
(``_located_sets``): locating is one lookup.  Above the budget
Berlekamp-Massey finds the shortest linear recurrence of the
syndromes, the reversal of its connection polynomial is the error
locator, and a Chien search finds its roots among the code points.

``grs_decode`` works over a prime field, where it decodes a (W, n)
int64 batch in one pass over all its rows: the syndromes, the table's
index and the Chien search are one matrix product each,
Berlekamp-Massey runs in lockstep as array operations, and every word
gets its error values from one stacked solve, one tau x tau system per
distinct located set, and its codeword from one re-encode.  A codeword
locates nothing and re-encodes to itself; a word that its locator or
the distance guard rejects is marked failed and zeroed in place, so no
row is gathered or scattered.  A batch of codewords returns at the
syndrome test, and a batch with a single word off the code locates it
through a Python-int table index, or the scalar recurrence, and solves
an L x L system on Python ints instead, which cost less for one word.
A single word is the batch of one.  Every int64 step is exact for
q < 2^31.  ``oracle_decode`` is the brute-force counterpart used to
cross-check the decoder, over any field; it enumerates every codeword,
so it is guarded by an enumeration bound.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, polyring
from .gf import ExtField, PrimeField

ORACLE_MAX_CODEWORDS = 2**20
ORACLE_MAX_FIELD = 4096
SYNDROME_TABLE_ENTRIES = 2**17  # int64 entries of a code's located-set table: 1 MB


class DecodeFailure(Exception):
    """No codeword lies within the decoding radius of the received word."""

    @classmethod
    def beyond(cls, radius: int) -> "DecodeFailure":
        return cls(f"no codeword within distance {radius} of the received word")


class EnumerationTooLarge(ValueError):
    """Brute-force enumeration would exceed the configured guard."""


@dataclass(frozen=True)
class GrsCode:
    """Code description: evaluation points, column multipliers, dimension."""

    field: object
    points: tuple
    multipliers: tuple
    dim: int

    def __post_init__(self):
        n = len(self.points)
        if len(self.multipliers) != n:
            raise ValueError("points and multipliers must have equal length")
        if not 1 <= self.dim <= n:
            raise ValueError(f"dimension {self.dim} outside [1, {n}]")
        if n > self.field.size:
            raise ValueError("more evaluation points than field elements")
        if len(set(self.points)) != n:
            raise ValueError("evaluation points must be pairwise distinct")
        if any(m == self.field.zero for m in self.multipliers):
            raise ValueError("column multipliers must be nonzero")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def radius(self) -> int:
        """Unique-decoding radius floor((n - dim) / 2)."""
        return (self.n - self.dim) // 2

    @functools.cached_property
    def check_matrix(self) -> np.ndarray:
        """The n - dim parity checks as a read-only (n, n - dim) int64 array; prime field only.

        Column e is (y_i x_i^e)_i with y_i = 1 / (m_i prod_{l != i}(x_i - x_l)).
        For every h of degree below dim and e < n - dim,
        sum_i y_i m_i h(x_i) x_i^e is the coefficient of x^(n-1) in the
        interpolant of h x^e, which is 0.  A (W, n) batch of words times
        it gives their syndromes.
        """
        F = self.field
        _, v = dual_multipliers(F, (), self.points)
        matrix = np.array(
            [[F.mul(F.mul(v_i, F.inv(m)), F.pow(x, e)) for e in range(self.n - self.dim)]
             for v_i, m, x in zip(v, self.multipliers, self.points)],
            dtype=np.int64,
        )
        matrix.flags.writeable = False
        return matrix

    @functools.cached_property
    def generator(self) -> np.ndarray:
        """Read-only (dim, n) int64 array with entry (e, i) = m_i x_i^e; prime field only.

        A (W, dim) batch of messages, coefficient e in column e, times it
        gives their codewords.
        """
        F = self.field
        matrix = np.array(
            [[F.mul(m, F.pow(x, e)) for x, m in zip(self.points, self.multipliers)]
             for e in range(self.dim)],
            dtype=np.int64,
        )
        matrix.flags.writeable = False
        return matrix

    @functools.cached_property
    def interpolation(self) -> np.ndarray:
        """Read-only (dim, dim) int64 inverse of ``generator[:, :dim]``; prime field only.

        A (W, dim) batch of codewords' first dim symbols times it gives
        their messages.  The first dim points are distinct, so the system
        is invertible; it is inverted once per code by ``solve_stacked``.
        """
        q, dim = self.field.q, self.dim
        system = self.generator[None, :, :dim]
        inverse, _ = linalg.solve_stacked(q, system, np.eye(dim, dtype=np.int64)[None])
        inverse = inverse[0]
        inverse.flags.writeable = False
        return inverse

    @functools.cached_property
    def chien_powers(self) -> np.ndarray:
        """Read-only (radius + 1, n) int64 array whose row l holds x_i^l; prime field only.

        A batch of locators, one coefficient row each, times it gives
        every locator's value at every code point.
        """
        F = self.field
        powers = np.array(
            [[F.pow(x, l) for x in self.points] for l in range(self.radius + 1)], dtype=np.int64
        )
        powers.flags.writeable = False
        return powers


@dataclass(frozen=True)
class DecodeResult:
    """A codeword of ``code`` and the positions where the received word differs."""

    code: GrsCode
    error_positions: tuple
    corrected_word: tuple

    @functools.cached_property
    def message_poly(self) -> tuple:
        """The message of the corrected word, solved on demand from its first dim positions."""
        message = _message(self.code, self.corrected_word, range(self.code.dim))
        return tuple(polyring.normalize(self.code.field, message))


@dataclass(frozen=True, eq=False)
class DecodedBatch:
    """The decoded rows of a (W, n) batch of words over a prime field.

    Row w of `corrected` is the codeword of word w and row w of `errors`
    marks the positions where the word differs from it; `failed[w]` says
    that no codeword lies within the radius, and then both rows are
    zero.
    """

    code: GrsCode
    corrected: np.ndarray  # (W, n) int64
    errors: np.ndarray  # (W, n) bool
    failed: np.ndarray  # (W,) bool

    def result(self, row: int) -> DecodeResult:
        """Row `row` as a DecodeResult; DecodeFailure if it failed."""
        if self.failed[row]:
            raise DecodeFailure.beyond(self.code.radius)
        return DecodeResult(
            code=self.code,
            error_positions=tuple(i for i, wrong in enumerate(self.errors[row].tolist()) if wrong),
            corrected_word=tuple(self.corrected[row].tolist()),
        )


def grs_encode(code: GrsCode, message_poly):
    """The codeword (m_1 h(x_1), ..., m_n h(x_n)) of the message h, as a tuple.

    Every coefficient of h must be a canonical element of the code's
    field (`validate`); anything else raises ValueError.

    Over a prime field, a (W, dim) int64 array of messages, coefficient e
    in column e, gives the (W, n) int64 array of their codewords, one
    product with ``code.generator``.
    """
    if getattr(message_poly, "ndim", 1) != 1:
        messages = linalg.field_array(message_poly, code.field.q, "messages")
        if messages.ndim != 2 or messages.shape[1] != code.dim:
            raise ValueError(f"messages have shape {messages.shape}, expected (W, {code.dim})")
        return linalg.matmul_mod(messages, code.generator, code.field.q)
    F = code.field
    coeffs = [F.validate(c) for c in message_poly]
    if polyring.degree(coeffs) >= code.dim:
        raise ValueError(f"message degree {polyring.degree(coeffs)} too high for dimension {code.dim}")
    return tuple(
        F.mul(m, polyring.poly_eval(F, coeffs, x))
        for x, m in zip(code.points, code.multipliers)
    )


def _message(code: GrsCode, word, positions) -> list:
    """The coefficients of the h of degree below dim with m_i h(x_i) = word_i at dim positions.

    One Vandermonde solve, over either field class, for
    ``DecodeResult.message_poly``; the positions are distinct points, so
    its solution is unique.  The coefficients are not normalized.
    """
    F = code.field
    rows, rhs = [], []
    for i in positions:
        power, row = F.one, []
        for _ in range(code.dim):
            row.append(power)
            power = F.mul(power, code.points[i])
        rows.append(row)
        rhs.append(F.mul(word[i], F.inv(code.multipliers[i])))
    return linalg.solve(F, rows, rhs)


def _berlekamp_massey(F, seq) -> tuple:
    """Shortest linear recurrence of seq over the prime field F, as (C, L).

    C[0] = 1, C has degree at most L, and sum_{l <= L} C[l] seq[j - l] = 0
    for every L <= j < len(seq) (Massey 1969).  The arithmetic is on
    Python ints modulo F.q, one reduction per discrepancy and per
    updated coefficient.
    """
    q = F.q
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for j, s in enumerate(seq):
        disc = s
        for l in range(1, min(length, len(conn) - 1) + 1):
            disc += conn[l] * seq[j - l]
        disc %= q
        if not disc:
            shift += 1
            continue
        scale = disc * pow(prev_disc, -1, q) % q
        updated = conn + [0] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev, shift):
            updated[i] = (updated[i] - scale * c) % q
        if 2 * length <= j:
            length, prev, prev_disc, shift = j + 1 - length, conn, disc, 1
        else:
            shift += 1
        conn = updated
    return conn, length


def _lockstep_berlekamp_massey(q: int, syndromes: np.ndarray) -> tuple:
    """``_berlekamp_massey`` of every row of a (D, N) int64 array over GF(q) at once, as (C, L).

    Returns a (D, N + 1) int64 array C, a transposed view, and a (D,)
    int64 array L: row w of C is a nonzero multiple of the scalar
    connection polynomial of syndrome row w, coefficient l in column l,
    and L[w] its length.  All rows step through the N syndromes
    together, keeping C, B, L and the old discrepancy gamma as arrays.

    Layout: the syndromes are read as (N, D) rows (the transpose of a
    C-contiguous (N, D) array, as the decoder passes it, is not copied),
    and C and z B are held as (N + 1, D) arrays, one contiguous row per
    coefficient, so every step is a few whole-row operations and the
    shift by z is a write one row down.  After step j no polynomial has
    degree above j + 1, so step j touches only the first j + 2 rows.
    Each discrepancy is one column sum of products reduced mod q.

    It is the inversion-free form: C <- gamma C - d z B, with B shifted by
    z at every step in which it is not replaced by C.  That is the scalar
    update C - (d / gamma) z B times gamma, so no inverse is needed.
    Every row takes the update at every step, with no per-row select:
    where d = 0 it is gamma C, a nonzero multiple of C, and B is shifted
    as the scalar recurrence shifts it.  So every C stays a nonzero
    multiple of the scalar one, and a scale changes neither the length
    nor the roots of the reversed locator: the located sets are the
    scalar decoder's.

    Exact for q < 2^31: each product C[l] S[j - l] is reduced mod q
    before a discrepancy sums at most N of them, and the update
    gamma C + (q - d) z B, with q - d in [1, q] (q - d = q is 0 mod q),
    is at most (q - 1)^2 + q (q - 1) < 2 q^2 < 2^63 before its reduction.
    """
    words, n = syndromes.shape
    syndromes = np.ascontiguousarray(syndromes.T)
    conn = np.zeros((n + 1, words), dtype=np.int64)
    conn[0] = 1
    shifted = np.zeros_like(conn)  # z B
    shifted[1] = 1
    length = np.zeros(words, dtype=np.int64)
    gamma = np.ones(words, dtype=np.int64)
    for j in range(n):
        products = linalg.reduce_mod(conn[: j + 1] * syndromes[j::-1], q)
        disc = linalg.reduce_mod(products.sum(axis=0), q)
        grow = (disc != 0) & (2 * length <= j)
        head = conn[: j + 2]
        update = (q - disc) * shifted[: j + 2]
        if j + 1 < n:  # z B for the next step: z C where the length grows, else z (z B)
            shifted[1 : j + 3] = np.where(grow, head, shifted[: j + 2])
        head *= gamma
        head += update
        linalg.reduce_mod(head, q)
        np.subtract(j + 1, length, out=length, where=grow)
        np.copyto(gamma, disc, where=grow)
    return conn.T, length


def _reversed_locators(conn: np.ndarray, length: np.ndarray, tau: int) -> tuple:
    """The error locators z^L C(1/z) of lockstep Berlekamp-Massey rows, as a (D, tau + 1) array.

    Coefficient i of a locator is C[L - i] for i <= L and 0 above.  It
    is one `np.take` from a contiguous (2 tau + 2, D) block that holds
    the first tau + 1 rows of ``conn.T``, the coefficient-major array the
    lockstep computes in and all a locator can read, below tau + 1 zero
    rows: row tau + 1 + L - i holds C[L - i], and every L - i < 0 reads
    a zero.  A row with L > tau gets length -1, which matches no root
    count, and so the zero locator.  Returns (locators, lengths).  On a
    `verify` sweep chunk's 2,000 rows (tau = 2) it takes about 50 us,
    against 90 us for a `np.take_along_axis` gather and a boolean store
    (medians of 300 calls, three runs, 2-CPU x86-64 host).
    """
    words = len(length)
    lengths = np.where(length > tau, -1, length)
    block = np.zeros((2 * tau + 2, words), dtype=np.int64)
    block[tau + 1 :] = conn.T[: tau + 1]
    index = (lengths + tau + 1) * words + np.arange(words) - words * np.arange(tau + 1)[:, None]
    return block.take(index).T, lengths


def grs_decode(code: GrsCode, received):
    """Bounded-distance decode up to radius tau = floor((n - dim)/2), over a prime field only.

    `received` is one word, for which a DecodeResult is returned, or a
    (W, n) array of words, for which a DecodedBatch is returned; entries
    must be integers in [0, q), and any other entry, 2.5 or 2.0 included,
    raises ValueError.  A single word is decoded as a batch of one, and
    raises DecodeFailure where the batch marks its row failed.  A code
    over an extension field raises TypeError.

    The syndromes are S_e = sum_i y_i r_i x_i^e for e < n - dim, one
    product of the batch with ``code.check_matrix``.  A zero syndrome
    means the word is a codeword: it is returned with no error
    positions, and nothing is solved, divided or re-encoded.

    Otherwise write the word as c + err for a codeword c and an error
    err supported on E.  The syndromes depend on err alone:
    S_e = sum_(i in E) Y_i x_i^e with Y_i = y_i err_i nonzero.  Two
    errors of weight <= tau with the same syndromes would differ by a
    codeword of weight <= 2 tau < n - dim + 1, the minimum distance, so
    the syndromes of a word within tau of the code name its E alone.
    The locator finds E, or says that no codeword lies within tau:

    - By table, for a code of at most 63 points with at most
      SYNDROME_TABLE_ENTRIES syndrome values (``_located_sets``): entry
      sum_e S_e q^e, an index below q^(n - dim), holds the id of E, or
      -1 when no error of weight <= tau has those syndromes.  A batch's
      index is one product of a power row with its syndrome rows, and its
      ids one ``np.take``.  The table is built when the code's first
      dirty word arrives, so an honest session never pays for it.
    - By recurrence, above the budget.  The syndromes are a sequence of
      linear complexity exactly |E|.  If |E| <= tau, its n - dim >= 2|E|
      terms determine the shortest recurrence uniquely, so
      Berlekamp-Massey returns length L = |E| and the connection
      polynomial C = prod_(i in E, x_i != 0)(1 - x_i z).  The locator is
      the reversal z^L C(1/z) = prod_(i in E)(z - x_i); C itself would
      lose the root of a point x_i = 0.  A Chien search over the n
      points (one product of the batch's locators with
      ``code.chien_powers``) then finds exactly E, and a root count other
      than L means that no codeword lies within tau.

    The error values solve the first syndromes: with
    y_i x_i^e = ``code.check_matrix[i, e]``, the L x L system
    sum_(i in E) check_matrix[i, e] err_i = S_e for e < L = |E| is a
    Vandermonde matrix on L distinct points times the nonzero y_i, so it
    is invertible and err is its unique solution.  Then c = word - err,
    whose first dim symbols times ``code.interpolation`` give its
    message, and re-encoding the message gives c again.  The solve and
    the re-encode stay on both locators: the re-encode is what gives the
    distance guard its meaning (the word minus its error differs from
    the word in at most tau positions, the re-encoded codeword need
    not), and the benchmark's traced pass counts one ``linalg.solve``
    and one ``grs_encode`` per decode (ROADMAP item 21 takes the values
    from the table once those counts go).  For the same reason the table
    carries each set's system and not its inverse: a decode inverts the
    systems of the sets it meets in its one stacked solve.

    The words of a batch with a nonzero syndrome, above the budget, run
    Berlekamp-Massey in lockstep (``_lockstep_berlekamp_massey``), one
    array step per syndrome for all of them.  It is the inversion-free
    form C <- gamma C - d z B, whose C is the scalar C times a nonzero
    constant: the same L, the same locator roots, the same located sets.
    Its numpy calls cost a fixed amount: with 4 syndromes over GF(11),
    the lockstep and the reversal to locators take about 100 us for one
    word and 125 us for 100, against 5.5 us and 520 us for the scalar
    recurrence on Python ints (medians of 15 interleaved rounds, 2-CPU
    Xeon).  So a batch with exactly one such word, as a byzantine
    session decodes, runs the scalar ``_berlekamp_massey``; the choice
    follows that observed count alone.  Its locator is then evaluated
    at the n points by Horner's rule on Python ints, about half the
    cost of building an array for one ``code.chien_powers`` product.
    Within the budget that word's index is taken on Python ints too.

    Each distinct located set takes its located positions first, padded
    with the first unlocated ones to tau, and its tau x tau system
    (``code.check_matrix`` on them, first tau columns, transposed) is
    inverted in one stacked ``linalg.solve``; any tau distinct points
    give an invertible system, and the solution is 0 at the padding.
    Within the budget the table names the sets: one ``np.bincount`` of
    the batch's ids finds the sets present, a remap ``take`` gives each
    word its place among them, and their positions and systems are taken
    from the table by id, with no sort and nothing built.  On a `verify`
    sweep chunk (2,000 words, 20 sets) that replaces a 67-74 us
    ``np.unique`` of the masks and a 22-26 us rebuild of the systems.
    Above it each word is keyed by the bits of its Chien roots
    (``_located_keys``), and ``np.unique`` of the keys gives the
    distinct sets and their first rows, whose positions and systems are
    built (``_error_systems``).
    Each word's error values are its set's inverse times its first tau
    syndromes, taken as tau^2 whole-row products over the syndrome rows,
    and one ``grs_encode`` re-encodes every corrected word
    (``_corrected_words``).  ``pir.retrieve_many`` rebuilds each file
    from the first dim symbols of its corrected word alone: a codeword
    is those symbols times interpolation @ generator, which its rebuild
    matrix folds in.  The stacked solve costs a fixed amount: at
    11 points, dim 7 and tau 2 over GF(11), correcting one word takes
    about 23 us with the list solve and 130 us stacked, and 100 words on
    20 located sets 2.2-3.3 ms one word at a time and 0.18-0.26 ms
    stacked (best of 21 rounds, two runs, 2-CPU x86-64 host).  So the
    lone dirty word of a batch, as a byzantine session decodes, solves
    the same system without the padding, L x L on its L located
    positions, as int rows in the list ``linalg.solve``
    (``_corrected_alone``); its message, the corrected first dim symbols
    times ``code.interpolation``, is then re-encoded as a (1, dim) batch,
    one product with the cached ``code.generator`` in place of n
    polynomial evaluations.

    The bookkeeping between these steps is one array pass: the syndromes
    are computed as (n - dim, W) rows, the lockstep's layout, and once
    two words are off the code every row is located and goes through the
    stacked correction, with no row gathered, copied or scattered.  A
    codeword has the empty located set (id 0, or L = 0 and the locator
    1), whose padded system gives it the error 0, and re-encodes to
    itself.  A failing row still gets a nonsingular system: the empty
    set's where the table has no entry, and its first tau located points
    where L > tau or where the zero locator locates every point.  Both
    locators share one guard line: a row fails where its locator rejects
    it (no table entry, or a root count that is not its length) or where
    its correction lies beyond tau, and is then zeroed.  The counts are
    one product of the bool rows with ones, about half the cost of a sum
    along them (23 against 51 us for a 2,000-word chunk's roots).  Lists
    of syndrome and root rows cost as much as the arithmetic once a
    sweep chunk holds 2,000 words: at (11,1,2,8) such a chunk decoded in
    5.3 ms with lists and 3.4 ms with arrays.

    A single dirty word stays on Python ints from its locator through
    its error values to its error positions and the distance guard
    (``_decoded_alone``), with no root-count mask, and a batch of one
    that is not a codeword is its own dirty word, so it skips the scan.
    The scan and the mask cost about 3 and 5 us, which every byzantine
    session's decode (about 80 us there) would pay for nothing.  Only
    the lone word's result rows are then written into the batch's
    arrays, about 3 us of bookkeeping where the whole-batch comparison,
    row sums and masks took 4.6 (at 11 points, dim 7, two errors: a lone
    decode won 19 of 21 alternating in-process rounds, and a failing
    word went from 25 to 18 us; 2-CPU Xeon).

    So a codeword within tau has a table entry, or forces L <= tau and
    exactly L located roots; when either locator rejects a word, no
    codeword lies within tau and the word fails.  When it accepts one,
    the syndromes are those of an error on the located positions (its
    values solve the first L syndromes, and the recurrence, or the
    table's construction, extends them to the rest), so a codeword lies
    within L <= tau, the word minus the solved error is that codeword,
    and the re-encoded word is that codeword again; the distance check
    cannot fail and stays only as a guard.  Every verdict is therefore
    the bounded-distance decoder's (``oracle_decode``), failures
    included.

    Exact for q < 2^31: every product of two field elements is below
    2^62, ``linalg.matmul_mod`` reduces its partial sums before they
    leave int64, the error values reduce their sum of tau products
    whenever one more would leave it, and the stacked solve is exact
    there (``solve_stacked``).  A table index is below the budget.
    Every reduction, in the recurrence and the corrections as in the
    products, is ``linalg.reduce_mod``: ``%=`` on a small array,
    a - q (a // q) by slabs on a large one.
    """
    if not isinstance(code.field, PrimeField):
        raise TypeError(f"grs_decode works over a prime field only, not over {code.field!r}")
    words = linalg.field_array(received, code.field.q, "received words")
    if words.ndim == 1:
        return grs_decode(code, words[None]).result(0)
    if words.ndim != 2 or words.shape[1] != code.n:
        raise ValueError(f"received words have shape {words.shape}, expected (W, {code.n})")
    return _decode_batch(code, words)


def _decode_batch(code: GrsCode, words: np.ndarray) -> DecodedBatch:
    """``grs_decode`` of a validated (W, n) batch; its bookkeeping is described there."""
    F, tau = code.field, code.radius
    # one row per syndrome and one column per word, the lockstep's layout
    syndromes = linalg.matmul_mod(code.check_matrix.T, words.T, F.q)
    # every word is a codeword; count_nonzero costs a third of any() on a small batch
    if not np.count_nonzero(syndromes):
        no_errors = np.zeros(words.shape, dtype=bool)
        return DecodedBatch(code, words.copy(), no_errors, np.zeros(len(words), dtype=bool))
    dirty = np.flatnonzero(syndromes.any(axis=0)) if len(words) > 1 else np.zeros(1, dtype=np.intp)
    if len(dirty) == 1:  # one word: the scalar locator and solve beat the arrays' fixed cost
        return _decoded_alone(code, words, dirty[0], syndromes[:, dirty[0]].tolist())
    # every row, clean ones too: a codeword locates nothing and re-encodes to itself
    ones = np.ones(code.n, dtype=np.int64)
    table = _located_sets(code)
    if table is None:  # above the budget: the lockstep recurrence and the Chien search
        locators, lengths = _reversed_locators(*_lockstep_berlekamp_massey(F.q, syndromes.T), tau)
        roots = linalg.matmul_mod(locators, code.chien_powers, F.q) == 0
        beyond = roots @ ones != lengths
        _, first, which = np.unique(_located_keys(roots), return_index=True, return_inverse=True)
        positions, systems = _error_systems(code, roots.take(first, axis=0))
    else:
        ids = table.ids.take(F.q ** np.arange(len(syndromes), dtype=np.int64) @ syndromes)
        beyond = ids < 0
        # the sets present, counted by id + 1 so that a miss (-1) counts at 0,
        # and each row's place among them
        slots = ids + 1
        present = np.bincount(slots, minlength=len(table.masks) + 1) != 0
        which = (np.cumsum(present) - 1).take(slots)
        sets = np.maximum(np.flatnonzero(present) - 1, 0)  # a miss takes the empty set; its row fails
        positions, systems = table.positions.take(sets, axis=0), table.systems.take(sets, axis=0)
    corrected = _corrected_words(code, words, which, positions, systems, syndromes)
    errors = corrected != words
    # the locator's verdict, then the distance guard; a bool row times ones counts its trues
    failed = beyond | (errors @ ones > tau)
    if failed.any():
        corrected[failed] = 0
        errors[failed] = False
    return DecodedBatch(code, corrected, errors, failed)


def _decoded_alone(code: GrsCode, words: np.ndarray, row: int, syndrome: list) -> DecodedBatch:
    """The decoded batch whose only word off the code is row `row`, with that row's syndrome.

    The locator runs on the row's Python ints: within the budget the
    located-set table's id at the index sum_e S_e q^e, taken by Horner's
    rule from the last syndrome, and that id's cached positions, as many
    as its mask has bits; above it the scalar recurrence and the Chien
    search (``_recurrence_positions``).  So do the error-value solve
    (``_corrected_alone``), the error positions and the distance guard;
    the other rows are codewords and are returned as they are.
    """
    q, tau = code.field.q, code.radius
    table = _located_sets(code)
    if table is None:
        located = _recurrence_positions(code, syndrome)
    else:
        found = table.ids[functools.reduce(lambda index, s: index * q + s, reversed(syndrome), 0)].item()
        located = None
        if found >= 0:  # the set's own positions open its padded row, one per bit of its mask
            located = table.positions[found, : table.masks[found].item().bit_count()].tolist()
    corrected = words.copy()
    errors = np.zeros(words.shape, dtype=bool)
    failed = np.zeros(len(words), dtype=bool)
    if located is not None:
        word = words[row].tolist()
        codeword = _corrected_alone(code, word, located, syndrome).tolist()
        wrong = [x != y for x, y in zip(codeword, word)]
        if wrong.count(True) <= tau:  # the distance guard
            corrected[row], errors[row] = codeword, wrong
            return DecodedBatch(code, corrected, errors, failed)
    corrected[row], failed[row] = 0, True
    return DecodedBatch(code, corrected, errors, failed)


def _recurrence_positions(code: GrsCode, syndrome: list):
    """The positions that the scalar recurrence locates from one word's syndrome, or None.

    ``_berlekamp_massey`` gives the length L and the connection
    polynomial C, and the locator z^L C(1/z) is evaluated at every point
    by Horner's rule from C[0].  None when L > tau or when the roots are
    not L in number: no codeword then lies within tau.
    """
    F = code.field
    conn, length = _berlekamp_massey(F, syndrome)
    if length > code.radius:
        return None
    coefficients = (conn + [0] * length)[: length + 1]
    located = []
    for i, x in enumerate(code.points):
        value = 0
        for c in coefficients:
            value = (value * x + c) % F.q
        if not value:
            located.append(i)
    return located if len(located) == length else None


def _corrected_alone(code: GrsCode, word: list, positions: list, syndrome: list) -> np.ndarray:
    """The codeword of one word whose errors sit exactly on the located positions, as an (n,) array.

    With L located positions, the error values there solve the L x L
    system ``code.check_matrix[positions, :L]`` transposed against the
    first L syndromes, the system ``_corrected_words`` pads to tau and
    stacks, here as a list solve on Python ints.  The word minus them is
    re-encoded: its first dim symbols times ``code.interpolation`` give
    its message, and ``grs_encode`` its codeword as a (1, dim) batch.
    """
    q = code.field.q
    system = code.check_matrix[positions, : len(positions)].T.tolist()
    values = linalg.solve(code.field, system, syndrome[: len(positions)])
    corrected = list(word)
    for i, value in zip(positions, values):
        corrected[i] = (corrected[i] - value) % q
    message = linalg.matmul_mod(np.array([corrected[: code.dim]], dtype=np.int64), code.interpolation, q)
    return grs_encode(code, message)[0]


def _error_systems(code: GrsCode, located: np.ndarray) -> tuple:
    """The padded positions and tau x tau error-value systems of (G, n) located masks.

    Row g of the (G, tau) positions holds mask g's located positions
    first, in order, then its first unlocated ones, tau in all.  System g
    is ``code.check_matrix`` on them, first tau columns, transposed:
    entry (e, j) is y_p x_p^e at position p = positions[g, j], a
    Vandermonde matrix on tau distinct points times nonzero column
    factors, so it is invertible.
    """
    tau = code.radius
    positions = np.argsort(~located, axis=1, kind="stable")[:, :tau]
    return positions, code.check_matrix[positions, :tau].transpose(0, 2, 1)


def _located_keys(located: np.ndarray) -> np.ndarray:
    """One exact key per row of (W, n) located masks, equal exactly where the masks are equal.

    For a code of at most 63 points the mask's bits as one int64, bit i
    for position i, as the located-set table's masks hold them; above
    that its bits packed into bytes and read as a single void value.  On
    a `verify` sweep chunk (2,000 words on 20 located sets; medians of
    15 rounds on one CPU of a 2-CPU x86-64 host) ``np.unique`` of the
    int64 keys took 78 us against 152 us for the void keys.
    """
    if located.shape[1] < 64:
        return located @ (1 << np.arange(located.shape[1], dtype=np.int64))
    packed = np.packbits(located, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _corrected_words(
    code: GrsCode, words: np.ndarray, which: np.ndarray, positions: np.ndarray, systems: np.ndarray,
    syndromes: np.ndarray,
) -> np.ndarray:
    """The codewords of (W, n) words whose errors sit exactly on their located sets.

    Word w's set is set which[w] of G distinct ones: row which[w] of the
    (G, tau) padded `positions` (its located positions first, then the
    first unlocated ones) and of the (G, tau, tau) `systems`, as
    ``_error_systems`` gives them and ``_located_sets`` caches them.
    `syndromes` holds the words' syndromes as (n - dim, W) rows.  A row
    whose errors do not sit on its set, or whose set holds more than tau
    positions, still gets a codeword.  The G systems are inverted in one
    stacked solve.  The error values are then tau whole-row steps over
    the syndrome rows, step j adding column j of each word's inverse,
    gathered by `np.take` from a contiguous (tau, G) block, times
    syndrome row j: tau^2 row products in all, with no (W, tau, tau)
    gather and no stacked product.  The words minus them are re-encoded:
    their first dim symbols times ``code.interpolation`` give the
    messages, and one ``grs_encode`` every codeword.  On a `verify`
    sweep chunk (2,000 words on 20 located sets, 11 points, tau = 2,
    GF(11); medians of 15 rounds on one CPU of a 2-CPU x86-64 host) the
    row steps take 28 us against 95 us for the gather and stacked
    product.
    """
    q, n, dim, tau = code.field.q, code.n, code.dim, code.radius
    identity = np.broadcast_to(np.eye(tau, dtype=np.int64), systems.shape)
    # column j of every set's inverse as a (tau, G) row block; `take` gathers
    # from a contiguous block at a fraction of the cost of fancy indexing
    columns = np.ascontiguousarray(linalg.solve(code.field, systems, identity).transpose(2, 1, 0))
    # values[i] = sum_j inverse[i, j] S_j for every word at once; each product
    # is below q^2, and `step` such terms fit int64, a reduced sum counting as one
    step, held = linalg.INT64_MAX // max((q - 1) ** 2, 1), 0
    values = np.zeros((tau, len(words)), dtype=np.int64)
    for j in range(tau):
        if held == step:
            linalg.reduce_mod(values, q)
            held = 1
        values += columns[j].take(which, axis=1) * syndromes[j]
        held += 1
    linalg.reduce_mod(values, q)
    # flat indices of each word's tau padded positions, as (tau, W) rows
    at = np.ascontiguousarray(positions.T).take(which, axis=1) + np.arange(0, words.size, n)
    corrected = words.copy()
    corrected.put(at, linalg.reduce_mod(words.take(at) - values, q))
    messages = linalg.matmul_mod(corrected[:, :dim], code.interpolation, q)
    return grs_encode(code, messages)


class _LocatedSets(NamedTuple):
    """The located-set table of a code (``_located_sets``): four read-only arrays."""

    ids: np.ndarray  # (q^(n - dim),) int64: the set id at each syndrome index, -1 for none
    masks: np.ndarray  # (S,) int64: set id -> bit mask of its support
    positions: np.ndarray  # (S, tau) int64: set id -> its padded positions
    systems: np.ndarray  # (S, tau, tau) int64: set id -> its error-value system


@functools.lru_cache(maxsize=4)
def _located_sets(code: GrsCode):
    """The located-set table of `code` as _LocatedSets, None above the budget; prime field.

    The S = sum_(w <= tau) C(n, w) supports of weight at most tau are
    numbered by ids: id 0 is the empty support, and the others run
    weight by weight in ``itertools.combinations`` order.  Entry
    sum_e S_e q^e of `ids`, for the n - dim syndromes S_e in [0, q) of a
    word, holds the id of the support of the unique error of weight
    <= tau with those syndromes: 0 for a codeword, and -1 where no such
    error exists, so that no codeword lies within tau.  Row id of
    `masks`, `positions` and `systems` holds that support's bit mask
    (bit i for position i) and its padded positions and tau x tau
    error-value system (``_error_systems``), so a decode takes its sets'
    systems by id and builds none.  `ids` has q^(n - dim) entries, and
    every index is below that.  It is None, before anything is
    allocated, when that is above SYNDROME_TABLE_ENTRIES or when the
    code has more than 63 points, whose masks would leave int64.

    It is built one weight w <= tau at a time: the syndromes of an error
    are the sums of its positions' single-error rows v y_i x_i^e, taken
    for every support and every choice of its w nonzero values in one
    broadcast sum of shape (C(n, w), q - 1, ..., q - 1, n - dim).  Two
    errors of weight <= tau have distinct syndromes (the code is MDS, of
    minimum distance n - dim + 1 > 2 tau), so no index is written twice;
    the build counts the entries written and raises RuntimeError if one
    was.  At the `verify`, `bulk` and `small` codes the tables hold
    14,641, 28,561 and 83,521 entries, of which 5,611, 11,389 and 35,089
    are errors, on 67, 92 and 154 sets.  The four most recently used
    codes keep theirs cached, as the codeword tables of
    ``_oracle_table`` are.
    """
    q, n, redundancy = code.field.q, code.n, code.n - code.dim
    if n > 63 or q**redundancy > SYNDROME_TABLE_ENTRIES:
        return None
    radix = q ** np.arange(redundancy, dtype=np.int64)
    # block i, row v - 1: the syndromes of the error value v at position i alone
    single = linalg.reduce_mod(np.arange(1, q, dtype=np.int64)[:, None] * code.check_matrix[:, None], q)
    ids = np.full(q**redundancy, -1, dtype=np.int64)
    ids[0], written, masks = 0, 1, [np.zeros(1, dtype=np.int64)]  # id 0: the empty support
    for weight in range(1, code.radius + 1):
        supports = np.array(list(itertools.combinations(range(n), weight)), dtype=np.int64)
        syndromes = np.zeros((len(supports),) + (q - 1,) * weight + (redundancy,), dtype=np.int64)
        for j in range(weight):  # position j's values along axis j + 1
            shape = [len(supports)] + [1] * weight + [redundancy]
            shape[j + 1] = q - 1
            syndromes += single[supports[:, j]].reshape(shape)
        index = linalg.reduce_mod(syndromes, q) @ radix
        first = sum(map(len, masks))
        ids[index] = np.arange(first, first + len(supports)).reshape((-1,) + (1,) * weight)
        written += index.size
        masks.append((1 << supports).sum(axis=1))
    if np.count_nonzero(ids >= 0) != written:
        raise RuntimeError(f"two errors of weight at most {code.radius} share a syndrome")
    masks = np.concatenate(masks)
    positions, systems = _error_systems(code, (masks[:, None] >> np.arange(n)) & 1 == 1)
    table = _LocatedSets(ids, masks, np.ascontiguousarray(positions), np.ascontiguousarray(systems))
    for array in table:
        array.flags.writeable = False
    return table


@dataclass
class _OracleTable:
    """Vectorized codeword table for one code (element-index space).

    `buckets[p][v]` lists the rows whose position-p symbol has index v.
    A word within distance tau of the received word must agree with it
    on at least one of the first tau + 1 positions (at most tau can
    differ), so scanning those buckets loses no candidates.
    """

    elements: list
    index: dict
    codewords: np.ndarray  # shape (size^dim, n), dtype uint16
    buckets: list  # [tau + 1][field size] -> (row ids, their codewords as (n, rows))

    @classmethod
    def build(cls, code: GrsCode) -> "_OracleTable":
        F = code.field
        size = F.size
        total = size**code.dim
        if total > ORACLE_MAX_CODEWORDS:
            raise EnumerationTooLarge(
                f"{total} codewords exceed the enumeration guard {ORACLE_MAX_CODEWORDS}"
            )
        if size > ORACLE_MAX_FIELD:
            raise EnumerationTooLarge(f"field size {size} too large to tabulate")
        elements = list(F.elements())
        index = {e: i for i, e in enumerate(elements)}
        add_t = np.empty((size, size), dtype=np.uint16)
        mul_t = np.empty((size, size), dtype=np.uint16)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                add_t[i, j] = index[F.add(a, b)]
                mul_t[i, j] = index[F.mul(a, b)]
        ids = np.arange(total, dtype=np.int64)
        digits = []
        for _ in range(code.dim):
            digits.append((ids % size).astype(np.uint16))
            ids //= size
        # digits[d] is the coefficient of x^d across all messages
        codewords = np.empty((total, code.n), dtype=np.uint16)
        for col, (x, m) in enumerate(zip(code.points, code.multipliers)):
            xi = index[x]
            acc = digits[code.dim - 1]
            for d in range(code.dim - 2, -1, -1):
                acc = add_t[mul_t[acc, xi], digits[d]]
            codewords[:, col] = mul_t[acc, index[m]]
        buckets = []
        for p in range(code.radius + 1):
            per_value = []
            for v in range(size):
                rows = np.flatnonzero(codewords[:, p] == v)
                per_value.append((rows, np.ascontiguousarray(codewords[rows].T)))
            buckets.append(per_value)
        return cls(
            elements=elements,
            index=index,
            codewords=codewords,
            buckets=buckets,
        )


@functools.lru_cache(maxsize=4)
def _oracle_table(code: GrsCode) -> _OracleTable:
    """The codeword table of `code`; the four most recently used stay cached."""
    return _OracleTable.build(code)


def oracle_decode(code: GrsCode, received, full_scan: bool = False) -> DecodeResult:
    """Exhaustive-enumeration decoder used as the verification oracle.

    Returns the unique codeword within the radius of the received word;
    raises DecodeFailure when none qualifies.  Only feasible for small
    codes (the codeword tables of the last few codes stay cached).  By default the
    scan is narrowed by the lossless bucket filter described on
    _OracleTable; `full_scan=True` forces the plain linear scan.
    """
    received = tuple(received)
    if len(received) != code.n:
        raise ValueError(f"received word has length {len(received)}, expected {code.n}")
    table = _oracle_table(code)
    rec = np.array([table.index[v] for v in received], dtype=np.uint16)
    hit_rows: set = set()
    if full_scan:
        distances = np.count_nonzero(table.codewords != rec, axis=1)
        hit_rows.update(np.flatnonzero(distances <= code.radius).tolist())
    else:
        for p in range(code.radius + 1):
            rows, columns = table.buckets[p][int(rec[p])]
            distances = np.count_nonzero(columns != rec[:, None], axis=0)
            hit_rows.update(rows[distances <= code.radius].tolist())
    if not hit_rows:
        raise DecodeFailure.beyond(code.radius)
    # bounded-distance uniqueness: two hits would contradict the minimum distance
    assert len(hit_rows) == 1, "two codewords inside the unique-decoding radius"
    hit = hit_rows.pop()
    word = tuple(table.elements[i] for i in table.codewords[hit])
    positions = tuple(i for i, (a, b) in enumerate(zip(word, received)) if a != b)
    return DecodeResult(code=code, error_positions=positions, corrected_word=word)


def dual_multipliers(field, alphas, betas):
    """Column multipliers of the dual evaluation code on alphas + betas.

    u_i pairs with the alpha positions and v_j with the beta positions:
    u_i is the inverse of prod_{l != i}(a_i - a_l) * prod_j(a_i - b_j);
    v_j is the inverse of prod_l(b_j - a_l) * prod_{l != j}(b_j - b_l).
    When field is an extension and every beta lies in its base field, as
    the server points of `pir.setup` do, the beta differences are base
    values: their product is taken in F_q and starts v_j's product, so
    v_j costs len(alphas) extension products, not one per other point.
    """
    combined = list(alphas) + list(betas)
    if len(set(combined)) != len(combined):
        raise ValueError("evaluation points must be pairwise distinct")
    u = []
    for i, a in enumerate(alphas):
        prod = field.one
        for l, other in enumerate(alphas):
            if l != i:
                prod = field.mul(prod, field.sub(a, other))
        for b in betas:
            prod = field.mul(prod, field.sub(a, b))
        u.append(field.inv(prod))
    if isinstance(field, ExtField) and not any(any(b[1:]) for b in betas):
        spreads = [field.embed(p) for p in _spreads(field.base, [b[0] for b in betas])]
    else:
        spreads = _spreads(field, betas)
    v = []
    for b, prod in zip(betas, spreads):
        for a in alphas:
            prod = field.mul(prod, field.sub(b, a))
        v.append(field.inv(prod))
    return tuple(u), tuple(v)


def _spreads(field, points) -> list:
    """prod_{l != j}(p_j - p_l) for each point p_j."""
    return [
        functools.reduce(field.mul, (field.sub(p, o) for l, o in enumerate(points) if l != j), field.one)
        for j, p in enumerate(points)
    ]
