"""Verdict capture and checking: golden coefficient digests and expected statuses."""

from __future__ import annotations

import hashlib
import os
import re
import time
from fractions import Fraction


def canonical_digest(triples) -> str:
    """SHA-256 of a coefficient table given as ``(q_exp, z_exp, coeff)`` triples.

    Triples are sorted and zero coefficients dropped; each coefficient is
    written as a reduced ``num/den``, so the digest does not depend on the
    order the table was built in or on the numeric type holding it.
    """
    rows = []
    for qe, ze, c in sorted((int(q), int(z), Fraction(c)) for q, z, c in triples):
        if c:
            rows.append(f"{qe} {ze} {c.numerator}/{c.denominator}\n")
    return hashlib.sha256("".join(rows).encode()).hexdigest()


def series_digest(s) -> str:
    return canonical_digest(s.terms())


def verdict_key(report) -> str:
    """``name`` or ``name[p=v,...]`` for a catalog report, params in sorted order."""
    if not report.params:
        return report.name
    return report.name + "[" + ",".join(f"{k}={report.params[k]}" for k in sorted(report.params)) + "]"


class Capture:
    """Records each verdict's report, the digests of the sides it compared, and its time.

    Wraps ``verify_entry``, ``verify_file`` and ``first_mismatch`` in the
    registry module, so verdicts reached through ``sweep_entry`` are seen too.
    ``times`` holds ``(key, wall seconds, CPU seconds)`` per verdict; the time
    spent computing digests is left out of both. ``before_verdict``, when
    given, is called before each verdict, outside its time.
    """

    def __init__(self, registry, before_verdict=None):
        self._before = before_verdict
        self.records: list = []        # (key, report or None, [(lhs digest, rhs digest)])
        self.times: list = []          # (key, wall s, cpu s)
        self._digests: list = []
        self._skipped = [0.0, 0.0]     # digest wall and CPU time of the current verdict
        self._registry = registry
        self._compare = registry.first_mismatch
        self._entry = registry.verify_entry
        self._file = registry.verify_file
        registry.first_mismatch = self.first_mismatch
        registry.verify_entry = self.verify_entry
        registry.verify_file = self.verify_file

    def first_mismatch(self, a, b):
        t0, c0 = time.perf_counter(), time.process_time()
        self._digests.append((series_digest(a), series_digest(b)))
        self._skipped[0] += time.perf_counter() - t0
        self._skipped[1] += time.process_time() - c0
        return self._compare(a, b)

    def _timed(self, call, *args, **kwargs):
        if self._before is not None:
            self._before()
        self._digests = []
        self._skipped = [0.0, 0.0]
        t0, c0 = time.perf_counter(), time.process_time()
        out = call(*args, **kwargs)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return out, wall - self._skipped[0], cpu - self._skipped[1]

    def _record(self, key, report, wall, cpu):
        self.records.append((key, report, self._digests))
        self.times.append((key, wall, cpu))

    def verify_entry(self, *args, **kwargs):
        report, wall, cpu = self._timed(self._entry, *args, **kwargs)
        self._record(verdict_key(report), report, wall, cpu)
        return report

    def verify_file(self, path, *args, **kwargs):
        reports, wall, cpu = self._timed(self._file, path, *args, **kwargs)
        key = "file:" + os.path.relpath(path, self._registry.IDENTITY_DIR)
        # Every workload file defines one identity; anything else is a failure.
        self._record(key, reports[0] if len(reports) == 1 else None, wall, cpu)
        return reports


def finding_codes(detail: str | None) -> list:
    """Finding codes from a report detail of the form ``code: message; code: message``."""
    return re.findall(r"(?:^|; )([a-z][a-z0-9-]*): ", detail or "")


def check_verdict(expected: dict, report, digests: list, check_digests: bool = True) -> list:
    """Problems with one verdict against its expected row; empty when it matches.

    Compares the status, the finding code and the mismatch position and
    coefficients, never message text, then the lhs/rhs digests.
    """
    if report is None:
        return ["no single report"]
    problems = []
    if report.status != expected["status"]:
        problems.append(f"status {report.status}, expected {expected['status']}: {report.detail}")
    code = expected.get("code")
    if code is not None and code not in finding_codes(report.detail):
        problems.append(f"finding codes {finding_codes(report.detail)}, expected {code}")
    want = expected.get("mismatch")
    if want is not None:
        got = report.mismatch
        if got is None or (
            Fraction(got["q_exp_num"], got["q_exp_den"]) != Fraction(want["q_exp"])
            or got["z_exp"] != want["z_exp"]
            or Fraction(got["lhs"]) != Fraction(want["lhs"])
            or Fraction(got["rhs"]) != Fraction(want["rhs"])
        ):
            problems.append(f"mismatch {got}, expected {want}")
    if check_digests:
        want_digests = [tuple(d) for d in expected.get("digests", [])]
        if digests != want_digests:
            problems.append("coefficient digests differ from the golden ones")
    return problems


def check_records(expected: dict, records: list) -> dict:
    """Problems per verdict key over a whole pass: every expected verdict once, each matching."""
    problems: dict = {}
    seen: dict = {}
    for key, report, digests in records:
        seen[key] = seen.get(key, 0) + 1
        row = expected.get(key)
        found = ["not an expected verdict"] if row is None else check_verdict(row, report, digests)
        if found:
            problems.setdefault(key, []).extend(found)
    for key in expected:
        if seen.get(key, 0) != 1:
            problems.setdefault(key, []).append(f"verified {seen.get(key, 0)} times, expected once")
    return problems
