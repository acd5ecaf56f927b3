"""Reed-Solomon / Generalized Reed-Solomon machinery.

A GRS code is the set of words (m_1 h(x_1), ..., m_n h(x_n)) for message
polynomials h of degree below the dimension.  Decoding is errors-only and
syndrome first.  The n - dim check rows y_i x_i^e, with y_i the inverse
of m_i prod_{l != i}(x_i - x_l), give the syndromes of the received
word; a zero syndrome means the word is a codeword and is returned as it
is.  Otherwise Berlekamp-Massey finds the shortest linear recurrence of
the syndromes, the reversal of its connection polynomial is the error
locator, a Chien search finds its roots among the code points, and one
linear solve on dim unlocated positions gives the message, which is
re-encoded.

``grs_decode`` works over a prime field, where it decodes a (W, n)
int64 batch in one pass: the syndromes and the Chien search are one
matrix product each, the words with a nonzero syndrome run
Berlekamp-Massey in lockstep as array operations, and the words with
errors to correct get their messages from one stacked solve, one
dim x dim system per distinct located set, and their codewords from one
re-encode.  The per-word bookkeeping (which words are off the code,
which are kept to correct, which fail) is array indexing too.  A batch
with a single word off the code runs the scalar recurrence and solve
instead, which cost less for one word.  A single word is the batch of
one.
``oracle_decode`` is the brute-force counterpart used to cross-check
the decoder, over any field; it enumerates every codeword, so it is
guarded by an enumeration bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg, polyring
from .gf import ExtField, PrimeField

ORACLE_MAX_CODEWORDS = 2**20
ORACLE_MAX_FIELD = 4096


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
        gives their codewords; its transpose on dim distinct positions is
        the invertible system that gives a message back from a codeword.
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

    One Vandermonde solve; the positions are distinct points, so its
    solution is unique.  The coefficients are not normalized.
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
    """Shortest linear recurrence of seq, as (C, L).

    C[0] = 1, C has degree at most L, and sum_{l <= L} C[l] seq[j - l] = 0
    for every L <= j < len(seq) (Massey 1969).
    """
    conn, prev = [F.one], [F.one]
    length, shift, prev_disc = 0, 1, F.one
    for j, s in enumerate(seq):
        disc = s
        for l in range(1, min(length, len(conn) - 1) + 1):
            disc = F.add(disc, F.mul(conn[l], seq[j - l]))
        if disc == F.zero:
            shift += 1
            continue
        scale = F.mul(disc, F.inv(prev_disc))
        updated = conn + [F.zero] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev):
            updated[i + shift] = F.sub(updated[i + shift], F.mul(scale, c))
        if 2 * length <= j:
            length, prev, prev_disc, shift = j + 1 - length, conn, disc, 1
        else:
            shift += 1
        conn = updated
    return conn, length


def _lockstep_berlekamp_massey(q: int, syndromes: np.ndarray) -> tuple:
    """``_berlekamp_massey`` of every row of a (D, N) int64 array over GF(q) at once, as (C, L).

    Returns a (D, N + 1) int64 array C and a (D,) int64 array L: row w of
    C is a nonzero multiple of the scalar connection polynomial of row w,
    coefficient l in column l, and L[w] its length.  All rows step through
    the N syndromes together, keeping C, B, L and the old discrepancy
    gamma as arrays; each discrepancy is one row-wise sum of products
    reduced mod q, and the updates are selected per row by masks.

    It is the inversion-free form: C <- gamma C - d z B, with B shifted by
    z at every step in which it is not replaced by C.  That is the scalar
    update C - (d / gamma) z B times gamma, so no inverse is needed and
    every C stays a nonzero multiple of the scalar one: the lengths, the
    roots of the reversed locators and hence the located sets are the
    scalar decoder's.  deg C <= L <= N, so N + 1 columns hold C and every
    z B that is used.

    Exact for q < 2^31: every product is below (q - 1)^2, a discrepancy
    adds at most N + 1 products already reduced mod q, and
    gamma C + (q - d) z B (with q - d taken mod q) is below
    2 (q - 1)^2 < 2^63.
    """
    rows, n = syndromes.shape
    conn = np.zeros((rows, n + 1), dtype=np.int64)
    conn[:, 0] = 1
    prev = conn.copy()
    shifted = np.zeros_like(conn)
    length = np.zeros(rows, dtype=np.int64)
    gamma = np.ones(rows, dtype=np.int64)
    for j in range(n):
        products = conn[:, : j + 1] * syndromes[:, j::-1]
        products %= q
        disc = products.sum(axis=1) % q
        shifted[:, 1:] = prev[:, :-1]
        updated = gamma[:, None] * conn + ((-disc) % q)[:, None] * shifted
        updated %= q
        step = disc != 0
        grow = step & (2 * length <= j)
        prev = np.where(grow[:, None], conn, shifted)
        conn = np.where(step[:, None], updated, conn)
        length = np.where(grow, j + 1 - length, length)
        gamma = np.where(grow, disc, gamma)
    return conn, length


def _reversed_locators(conn: np.ndarray, length: np.ndarray, tau: int) -> tuple:
    """The error locators z^L C(1/z) of lockstep Berlekamp-Massey rows, as a (D, tau + 1) array.

    Coefficient i of a locator is C[L - i] for i <= L.  A row with
    L > tau gets the zero locator and length -1, which matches no root
    count.  Returns (locators, lengths).
    """
    index = length[:, None] - np.arange(tau + 1)
    locators = np.take_along_axis(conn, np.maximum(index, 0), axis=1)
    beyond = length > tau
    locators[(index < 0) | beyond[:, None]] = 0
    return locators, np.where(beyond, -1, length)


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
    S_e = sum_(i in E) Y_i x_i^e with Y_i = y_i err_i nonzero, a
    sequence of linear complexity exactly |E|.  If |E| <= tau, its
    n - dim >= 2|E| terms determine the shortest recurrence uniquely, so
    Berlekamp-Massey returns length L = |E| and the connection
    polynomial C = prod_(i in E, x_i != 0)(1 - x_i z).  The
    locator is the reversal z^L C(1/z) = prod_(i in E)(z - x_i); C itself
    would lose the root of a point x_i = 0.  A Chien search over the n
    points (one product of the batch's locators with ``code.chien_powers``)
    then finds exactly E, the first dim points outside E are clean, one
    solve gives the message of c, and re-encoding gives c.

    The words of a batch with a nonzero syndrome run Berlekamp-Massey in
    lockstep (``_lockstep_berlekamp_massey``), one array step per
    syndrome for all of them.  It is the inversion-free form
    C <- gamma C - d z B, whose C is the scalar C times a nonzero
    constant: the same L, the same locator roots, the same located sets.
    Its numpy calls cost a fixed amount: with 4 syndromes over GF(11),
    the lockstep and the reversal to locators take about 77 us for one
    word and 121 us for 100, against 6 us and 540 us for the scalar
    recurrence (2-CPU Xeon).  So a batch with exactly one such word, as
    a byzantine session decodes, runs the scalar ``_berlekamp_massey``;
    the choice follows that observed count alone.

    When the lockstep has run, the words it leaves to correct have their
    located sets deduplicated, and each distinct set's dim x dim system
    (``code.generator`` transposed, on its clean positions) is inverted
    in one stacked ``linalg.solve``; one product per word with its set's
    inverse gives the messages, and one ``grs_encode`` of all of them the
    codewords.  The stacked solve costs a fixed amount: at dim 7 over
    GF(11), correcting one word takes about 190 us with the scalar solve
    and re-encode and 300 us stacked, and 100 words on 20 located sets
    about 17 ms one word at a time and 0.7 ms stacked (2-CPU Xeon).  So
    the lone dirty word of a batch, as a byzantine session decodes, takes
    the scalar ``_message`` and ``grs_encode``.

    The bookkeeping between these steps is array indexing: the dirty
    rows are ``np.flatnonzero`` of the nonzero syndrome rows, the kept
    rows those whose Chien root count equals their length, and `failed`
    and `corrected` are indexed with those arrays.  Lists of syndrome and
    root rows cost as much as the arithmetic once a sweep chunk holds
    2,000 words: at (11,1,2,8) such a chunk decoded in 5.3 ms with lists
    and 3.4 ms with arrays.  A single dirty word stays on Python ints
    from the recurrence to the re-encode, with no kept mask, and a batch
    of one that is not a codeword is its own dirty word, so it skips the
    scan.  The scan and the mask cost about 3 and 5 us, which every
    byzantine session's decode (about 200 us there) would pay for
    nothing; without them a lone decode measured no slower than with
    lists (23 of 31 alternating rounds won; 2-CPU Xeon).

    So a codeword within tau forces L <= tau and exactly L located
    roots; when either fails, no codeword lies within tau and the word
    fails.  When both hold, the syndromes are those of an error on the
    located positions (its values solve the first L syndromes, and the
    recurrence extends them to the rest), so a codeword lies within
    L <= tau, the clean positions give its message, and the re-encoded
    word is that codeword; the distance check cannot fail and stays only
    as a guard.  Every verdict is therefore the bounded-distance
    decoder's (``oracle_decode``), failures included.
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
    corrected = words.copy()
    failed = np.zeros(len(words), dtype=bool)
    syndromes = linalg.matmul_mod(words, code.check_matrix, F.q)
    if not syndromes.any():  # every word is a codeword
        return DecodedBatch(code, corrected, np.zeros(words.shape, dtype=bool), failed)
    dirty = np.flatnonzero(syndromes.any(axis=1)) if len(words) > 1 else np.zeros(1, dtype=np.intp)
    if len(dirty) == 1:  # one word: the scalar recurrence and solve beat the arrays' fixed cost
        row = dirty[0]
        conn, length = _berlekamp_massey(F, syndromes[row].tolist())
        located = []  # a length beyond tau locates nothing, and the word fails
        if length <= tau:
            locator = np.array((conn + [F.zero] * length)[length::-1], dtype=np.int64)
            located = (linalg.matmul_mod(locator, code.chien_powers[: length + 1], F.q) == 0).tolist()
        if located.count(True) == length:
            corrected[row] = _corrected_alone(code, words[row].tolist(), located)
        else:
            failed[row] = True
    else:
        locators, lengths = _reversed_locators(*_lockstep_berlekamp_massey(F.q, syndromes[dirty]), tau)
        roots = linalg.matmul_mod(locators, code.chien_powers, F.q) == 0
        kept = roots.sum(axis=1) == lengths
        rows = dirty[kept]
        failed[dirty[~kept]] = True
        if len(rows):
            corrected[rows] = _corrected_words(code, words[rows], roots[kept])
    errors = corrected != words
    failed |= errors.sum(axis=1) > tau  # the distance guard
    if failed.any():
        corrected[failed] = 0
        errors[failed] = False
    return DecodedBatch(code, corrected, errors, failed)


def _corrected_alone(code: GrsCode, word: list, located: list) -> tuple:
    """The codeword of one word whose errors sit exactly on the located positions, in ints.

    Its clean positions are the first dim unlocated ones; ``_message``
    solves for the message there and ``grs_encode`` re-encodes it.
    """
    clean = [i for i, hit in enumerate(located) if not hit][: code.dim]
    return grs_encode(code, _message(code, word, clean))


def _corrected_words(code: GrsCode, words: np.ndarray, located: np.ndarray) -> np.ndarray:
    """The codewords of (K, n) words whose errors sit exactly on the (K, n) located masks.

    The masks are deduplicated through one exact key per row, its bits
    packed into bytes and read as a single void value.  Each distinct
    set's clean positions are its first dim unlocated ones; the G systems
    ``code.generator.T`` on them are inverted in one stacked solve, each
    word's message is its set's inverse times its clean symbols, and one
    ``grs_encode`` gives every codeword.
    """
    q, dim = code.field.q, code.dim
    packed = np.packbits(located, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    clean = np.argsort(located[first], axis=1, kind="stable")[:, :dim]
    systems = code.generator.T[clean]
    identity = np.broadcast_to(np.eye(dim, dtype=np.int64), systems.shape)
    inverses = linalg.solve(code.field, systems, identity)
    symbols = np.take_along_axis(words, clean[which], axis=1)
    messages = linalg.matmul_mod(inverses[which], symbols[:, :, None], q)[:, :, 0]
    return grs_encode(code, messages)


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
