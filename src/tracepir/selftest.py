"""Built-in acceptance checks.

Each criterion is an independent callable returning a CheckResult; the
CLI `selftest` command and the test suite both run them.  Every check
either passes exactly (rational comparisons, planted ground truth) or
fails with a counterexample in its detail string.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from . import harness, pir, polyring, rscodes
from .gf import PrimeField
from .rand import SeededStream


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(criterion, name, passed, detail, started) -> CheckResult:
    return CheckResult(
        criterion=criterion,
        name=name,
        passed=passed,
        detail=detail,
        seconds=time.perf_counter() - started,
    )


def check_exhaustive_byzantine() -> CheckResult:
    """1: every single-server corruption at the s=1 instance is corrected."""
    started = time.perf_counter()
    params = pir.setup(4, 1, 1, 4, m=3)
    seeds = range(10)
    total = failed = 0
    for seed in seeds:
        db = pir.random_database(params, seed)
        report = harness.byzantine_sweep(params, db, scope="exhaustive", seed=seed)
        total += report.cases_total
        failed += report.cases_failed
        if report.cases_total != 72:
            return _result(1, "exhaustive byzantine correctness", False,
                           f"expected 72 cases per seed, got {report.cases_total}", started)
    passed = failed == 0
    return _result(1, "exhaustive byzantine correctness", passed,
                   f"{total} cases over {len(list(seeds))} seeds, {failed} failures", started)


def check_extension_field_correctness() -> CheckResult:
    """2: 10^3 randomized corrupted sessions at the s=2 instance."""
    started = time.perf_counter()
    params = pir.setup(7, 1, 1, 5, m=4)
    db = pir.random_database(params, 20_240)
    report = harness.byzantine_sweep(params, db, scope="randomized", trials=1000, seed=1)
    passed = report.cases_failed == 0 and report.cases_total == 1000
    return _result(2, "extension-field correctness", passed,
                   f"{report.cases_total} sessions, {report.cases_failed} failures", started)


def check_rate_equals_capacity() -> CheckResult:
    """3: measured trace-mode download rate equals (k-2b-t)/k exactly."""
    started = time.perf_counter()
    tuples = [(4, 1, 1, 4), (7, 1, 1, 5), (5, 1, 0, 3), (11, 1, 2, 8)]
    details = []
    for k, t, b, r in tuples:
        params = pir.setup(k, t, b, r, m=2)
        db = pir.random_database(params, 3)
        report = harness.run_session(params, db, 1, seed=5)
        expected = Fraction(k - 2 * b - t, k)
        if not report.ok:
            return _result(3, "download rate equals capacity", False,
                           f"honest session failed at {(k, t, b, r)}", started)
        if report.measured_rate != expected or report.measured_rate != pir.capacity(t, b, k):
            return _result(3, "download rate equals capacity", False,
                           f"{(k, t, b, r)}: measured {report.measured_rate} != {expected}", started)
        details.append(f"(k={k},t={t},b={b}): {report.measured_rate}")
    return _result(3, "download rate equals capacity", True, "; ".join(details), started)


def check_finite_m_capacity() -> CheckResult:
    """4: finite-file capacity converges monotonically to 2/5 at (1,1,5)."""
    started = time.perf_counter()
    limit = pir.capacity(1, 1, 5)
    if limit != Fraction(2, 5):
        return _result(4, "finite-m capacity convergence", False,
                       f"asymptotic capacity {limit} != 2/5", started)
    values = [pir.capacity(1, 1, 5, m) for m in range(1, 101)]
    monotone = all(values[i] >= values[i + 1] for i in range(len(values) - 1))
    above = all(v >= limit for v in values)
    gap = values[-1] - limit
    passed = monotone and above and gap < Fraction(1, 10**9)
    return _result(4, "finite-m capacity convergence", passed,
                   f"monotone={monotone}, C_100 - C = {float(gap):.3e}", started)


def check_privacy() -> CheckResult:
    """5: exhaustive audit distance is exactly 0; transfer audit passes."""
    started = time.perf_counter()
    params_small = pir.setup(4, 1, 1, 4, m=2)
    exhaustive = harness.privacy_audit(params_small, mode="exhaustive")
    if exhaustive.max_tv_distance != 0 or exhaustive.verdict != "pass":
        return _result(5, "t-privacy audits", False,
                       f"exhaustive max TV {exhaustive.max_tv_distance}", started)
    if len(exhaustive.subsets) != 4:
        return _result(5, "t-privacy audits", False,
                       f"expected 4 single-server subsets, got {len(exhaustive.subsets)}", started)
    params_ext = pir.setup(7, 1, 1, 5, m=4)
    transfer = harness.privacy_audit(params_ext, mode="transfer-matrix")
    passed = transfer.verdict == "pass" and len(transfer.subsets) == 7
    return _result(5, "t-privacy audits", passed,
                   f"exhaustive TV=0 over {exhaustive.cases_total} comparisons; "
                   f"transfer {len(transfer.subsets)}/7 subsets invertible", started)


def _decode(decoder, code, word):
    """The decoder's DecodeResult, or None on DecodeFailure."""
    try:
        return decoder(code, word)
    except rscodes.DecodeFailure:
        return None


def check_decoder_oracle_equivalence() -> CheckResult:
    """6: bounded-distance decoder agrees with brute-force enumeration.

    Within the radius the decoder must also return the planted message;
    beyond it (tau + 1 and tau + 2 errors) its verdict, DecodeFailure
    included, must be the oracle's.
    """
    started = time.perf_counter()
    F7 = PrimeField(7)
    code = rscodes.GrsCode(field=F7, points=(0, 1, 2, 3, 4), multipliers=(1,) * 5, dim=3)
    checked = 0
    for message in itertools.product(range(7), repeat=3):
        msg = tuple(polyring.normalize(F7, list(message)))
        word = rscodes.grs_encode(code, msg)
        clean = rscodes.grs_decode(code, word)
        if (clean.corrected_word, clean.error_positions, clean.message_poly) != (word, (), msg):
            return _result(6, "decoder oracle equivalence", False,
                           f"clean decode failed for {message}", started)
        for pos in range(5):
            for wrong in range(7):
                if wrong == word[pos]:
                    continue
                received = list(word)
                received[pos] = wrong
                got = rscodes.grs_decode(code, received)
                if got != rscodes.oracle_decode(code, received) or got.message_poly != msg:
                    return _result(6, "decoder oracle equivalence", False,
                                   f"disagreement at word {word}, received {received}", started)
                checked += 1
    F11 = PrimeField(11)
    code11 = rscodes.GrsCode(
        field=F11, points=tuple(range(7)), multipliers=(1, 2, 3, 4, 5, 6, 7), dim=5
    )
    tau = code11.radius
    random_checked = beyond_checked = 0
    words, verdicts = [], []
    for label, cases, error_counts in (("oracle", 10_000, range(tau + 1)),
                                       ("oracle-beyond", 4_000, (tau + 1, tau + 2))):
        stream = SeededStream(6, label)
        for _ in range(cases):
            msg = tuple(polyring.normalize(F11, [stream.randrange(11) for _ in range(5)]))
            word = list(rscodes.grs_encode(code11, msg))
            planted = tuple(word)
            errors = error_counts[stream.randrange(len(error_counts))]
            for pos in stream.sample(7, errors):
                word[pos] = stream.randrange_excluding(11, word[pos])
            got = _decode(rscodes.grs_decode, code11, word)
            if got != _decode(rscodes.oracle_decode, code11, word) or (
                    got is not None and got.corrected_word == planted and got.message_poly != msg):
                return _result(6, "decoder oracle equivalence", False,
                               f"disagreement on random case {word}", started)
            words.append(word)
            verdicts.append(got)
            if errors <= tau:
                random_checked += 1
            else:
                beyond_checked += 1
    # the same words once more as one batch, whose solves are shared by located set
    batch = rscodes.grs_decode(code11, words)
    for row, (word, got) in enumerate(zip(words, verdicts)):
        try:
            again = batch.result(row)
        except rscodes.DecodeFailure:
            again = None
        if again != got:
            return _result(6, "decoder oracle equivalence", False,
                           f"batch disagreement on random case {word}", started)
    return _result(6, "decoder oracle equivalence", True,
                   f"{checked} exhaustive single-error cases; {random_checked} random cases; "
                   f"{beyond_checked} random cases beyond the radius", started)


def check_dual_code_identities() -> CheckResult:
    """7: recovery and check words are orthogonal to random answer codewords."""
    started = time.perf_counter()
    for k, t, b, r in ((4, 1, 1, 4), (7, 1, 1, 5)):
        params = pir.setup(k, t, b, r, m=2)
        ext = params.ext
        words = [w for _, w in pir.recovery_dual_words(params)]
        words += [w for _, w in pir.parity_check_words(params)]
        stream = SeededStream(7, f"dual-{k}")
        for _ in range(1000):
            coeffs = polyring.normalize(
                ext,
                [stream.field_element(ext) for _ in range(params.r - 2 * params.b)],
            )
            codeword = pir.rs_codeword(params, coeffs)
            for word in words:
                acc = ext.zero
                for a, c in zip(word, codeword):
                    acc = ext.add(acc, ext.mul(a, c))
                if acc != ext.zero:
                    return _result(7, "dual-code identities", False,
                                   f"nonzero inner product at {(k, t, b, r)}", started)
    return _result(7, "dual-code identities", True,
                   "all recovery and check words orthogonal to 1000 random codewords "
                   "at both parameter sets", started)


def check_reconstruction_identity() -> CheckResult:
    """8: x = sum_d theta_d Tr(eta_d x) for every element of GF(49)."""
    started = time.perf_counter()
    params = pir.setup(7, 1, 1, 5)
    ext = params.ext
    for x in ext.elements():
        acc = ext.zero
        for theta_d, eta_d in zip(params.theta, params.eta):
            acc = ext.add(acc, ext.scalar_mul(ext.trace(ext.mul(eta_d, x)), theta_d))
        if acc != x:
            return _result(8, "trace reconstruction identity", False,
                           f"failed at {x}", started)
    return _result(8, "trace reconstruction identity", True,
                   f"all {ext.size} elements reconstruct exactly", started)


def check_file_size_optimality() -> CheckResult:
    """9: optimality flags, counterexample rejection, and the formula table."""
    started = time.perf_counter()
    for k, t, b, r in ((4, 1, 1, 4), (7, 1, 1, 5), (5, 1, 0, 3), (11, 1, 2, 8)):
        params = pir.setup(k, t, b, r)
        report = pir.validate_optimality(params)
        if not report.all_ok:
            return _result(9, "file-size optimality and table", False,
                           f"setup output flagged non-optimal at {(k, t, b, r)}", started)
    bad = pir.validate_optimality((4, 1, 1, 5))
    if bad.divisibility:
        return _result(9, "file-size optimality and table", False,
                       "counterexample (4,1,1,5) not rejected", started)
    hypothetical = pir.validate_optimality((9, 1, 2, 5), delta=1, s=5)
    if hypothetical.file_size_optimal or not hypothetical.size_lower_bound_ok:
        return _result(9, "file-size optimality and table", False,
                       "hypothetical (delta=1, s=5) flags wrong", started)
    import math

    for k, t, b, r, l in ((4, 1, 1, 4, 1), (7, 1, 1, 5, 2)):
        table = harness.scheme_comparison(k, t, b, r, l=l)
        q = table.q
        log_q = math.log2(q)
        expected_syms = {
            "Pi1": l * (k - t),
            "Pi2": l * (k - 2 * b - t),
            "A1": l * (r - t) * (k - t),
            "A2": l * (r - 2 * b - t) * (k - 2 * b - t),
        }
        expected_cost = {
            "Pi1": l * k,
            "Pi2": l * k,
            "A1": l * k * (r - t),
            "A2": l * k * (r - 2 * b - t),
        }
        expected_rate = {
            "Pi1": Fraction(k - t, k),
            "Pi2": Fraction(k - 2 * b - t, k),
            "A1": Fraction(k - t, k),
            "A2": Fraction(k - 2 * b - t, k),
        }
        for col in table.columns:
            if col.file_size_base_symbols != expected_syms[col.scheme]:
                return _result(9, "file-size optimality and table", False,
                               f"{col.scheme} file size wrong at {(k, t, b, r, l)}", started)
            if abs(col.file_size_bits - expected_syms[col.scheme] * log_q) > 1e-12:
                return _result(9, "file-size optimality and table", False,
                               f"{col.scheme} file bits wrong", started)
            if col.download_cost_base_symbols != expected_cost[col.scheme]:
                return _result(9, "file-size optimality and table", False,
                               f"{col.scheme} download cost wrong", started)
            if col.download_rate != expected_rate[col.scheme] or col.capacity != expected_rate[col.scheme]:
                return _result(9, "file-size optimality and table", False,
                               f"{col.scheme} rate wrong", started)
            if col.byzantine_resistance != (0 if col.scheme in ("Pi1", "A1") else b):
                return _result(9, "file-size optimality and table", False,
                               f"{col.scheme} byzantine column wrong", started)
        for col in table.columns[:2]:
            if col.live is not None and not col.live["matches_formula"]:
                return _result(9, "file-size optimality and table", False,
                               f"live measurement of {col.scheme} diverges", started)
    return _result(9, "file-size optimality and table", True,
                   "optimality flags exact; table formula rows reproduced at both tuples", started)


def check_retrieval_threshold() -> CheckResult:
    """10: r answers suffice under b corruptions; fewer are ambiguous."""
    started = time.perf_counter()
    params = pir.setup(4, 1, 1, 4, m=3)
    db = pir.random_database(params, 99)
    ext = params.ext
    cases = 0
    for iota in (1, 2, 3):
        queries = pir.gen_queries(params, iota, SeededStream(31, f"rt-{iota}"))
        for subset in itertools.combinations(range(1, params.k + 1), params.r):
            honest = pir.collect_answers(params, queries, db, "full", subset)
            got = pir.retrieve_from_r(params, honest)
            if got.symbols != db.row(iota):
                return _result(10, "retrieval threshold", False,
                               f"honest r-subset {subset} failed", started)
            cases += 1
            for pos, server in enumerate(subset):
                for wrong in ext.elements():
                    if wrong == honest.values[pos]:
                        continue
                    values = list(honest.values)
                    values[pos] = wrong
                    tampered = pir.AnswerSet("full", honest.server_ids, tuple(values))
                    got = pir.retrieve_from_r(params, tampered)
                    if got.symbols != db.row(iota) or got.error_servers != (server,):
                        return _result(10, "retrieval threshold", False,
                                       f"corruption at server {server} not corrected", started)
                    cases += 1
    # Ambiguity below the threshold: with r-1-2b honest full answers, two
    # databases differing in the target file can answer identically.
    short = params.r - 1 - 2 * params.b
    probe = pir.setup(4, 1, 1, 4, m=1)
    collision = None
    for x1 in probe.ext.elements():
        for x2 in probe.ext.elements():
            if x1 == x2:
                continue
            answers1 = set()
            answers2 = set()
            for blind in probe.ext.elements():
                blinding = (((blind,),),)  # t=1 array of shape 1 x 1
                queries = pir.queries_from_blinding(probe, 1, blinding)
                for db_val, sink in ((x1, answers1), (x2, answers2)):
                    database = pir.Database(((db_val,),))
                    vals = tuple(
                        pir.server_answer(probe, j, queries[j - 1], database, "full")
                        for j in range(1, short + 1)
                    )
                    sink.add(vals)
            if answers1 & answers2:
                collision = (x1, x2)
                break
        if collision:
            break
    if collision is None:
        return _result(10, "retrieval threshold", False,
                       f"no ambiguity found with {short} answers (threshold overshoots)", started)
    return _result(10, "retrieval threshold", True,
                   f"{cases} r-subset cases recovered; files {collision[0]} and {collision[1]} "
                   f"indistinguishable from {short} answer(s)", started)


ALL_CHECKS = (
    check_exhaustive_byzantine,
    check_extension_field_correctness,
    check_rate_equals_capacity,
    check_finite_m_capacity,
    check_privacy,
    check_decoder_oracle_equivalence,
    check_dual_code_identities,
    check_reconstruction_identity,
    check_file_size_optimality,
    check_retrieval_threshold,
)


def run_selftest(criteria=None, out=print) -> list:
    """Run the acceptance checks (all by default) and print one line each."""
    results = []
    for number, check in enumerate(ALL_CHECKS, start=1):
        if criteria and number not in criteria:
            continue
        result = check()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        out(f"{status} criterion {result.criterion}: {result.name} "
            f"[{result.seconds:.2f}s] - {result.detail}")
    return results
