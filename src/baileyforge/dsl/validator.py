"""Validation of identity specs: static checks of names and ranges, then a probe.

The probe evaluates both sides with the fast evaluator at order 6, at the
lowest and the highest parameter bindings, and turns a refused sum, a
non-unit denominator, a pole or a malformed product into a located finding.
A refused sum is located at itself and, when its term bound does not grow,
reported by its kind (``_NO_GROWTH``). The probe never runs the
brute-force oracle; the oracle is reached only through ``--oracle`` and
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    BudgetError,
    NonUnitLeadingError,
    PoleError,
    SpecError,
    TerminationError,
    ZDegreeError,
)
from .evaluator import NO_GROWTH, bindings_env, evaluate
from .nodes import (
    Add,
    Appell,
    BilateralSum,
    ChainSum,
    Div,
    Hecke,
    IAdd,
    IBinom,
    IMul,
    INeg,
    IPow,
    ISub,
    IdentitySpec,
    IVar,
    Mul,
    Neg,
    NumPoly,
    Poch,
    Pow,
    QBinom,
    QPow,
    RangeSum,
    Rational,
    Span,
    Sub,
    Theta,
    ZPow,
)

_PROBE_ORDER = 6

# Probe errors that are defects of the spec, with their finding codes.
_PROBE_CODES = (
    (TerminationError, "sum-not-settling"),
    (NonUnitLeadingError, "non-unit-denominator"),
    (PoleError, "pole"),
    (SpecError, "bad-shape"),
)
_PROBE_FINDINGS = tuple(cls for cls, _ in _PROBE_CODES)

# A sum whose term bound does not grow along a ray never clears the window.
_NO_GROWTH = {
    BilateralSum: ("bilateral-no-growth", "two-sided sum needs its term exponent to grow along both rays"),
    Appell: ("appell-no-growth", "Appell-Lerch term, its divisor included, needs exponent growth along both rays"),
    ChainSum: ("chain-no-growth", "sum over descending indices needs exponent growth along its rays"),
    Hecke: ("hecke-no-growth", "row exponents must grow along every edge of the region"),
}


@dataclass(frozen=True)
class Finding:
    """One validation defect, located by the offending node's span."""

    code: str
    message: str
    span: Span | None = None


def describe(findings) -> list:
    """Each distinct finding once, as ``code: message``, in the order first found."""
    return list(dict.fromkeys(f"{f.code}: {f.message}" for f in findings))


def _ivars(e, out):
    """Collect (name, span) for every identifier in an integer expression."""
    if isinstance(e, IVar):
        out.append((e.name, e.span))
    elif isinstance(e, (IAdd, ISub, IMul)):
        _ivars(e.left, out)
        _ivars(e.right, out)
    elif isinstance(e, INeg):
        _ivars(e.arg, out)
    elif isinstance(e, IPow):
        _ivars(e.base, out)
    elif isinstance(e, IBinom):
        _ivars(e.arg, out)


def _check_int(e, scope, findings):
    if e is None:
        return
    names: list = []
    _ivars(e, names)
    for name, span in names:
        if name not in scope:
            findings.append(Finding("unknown-name", f"unknown identifier {name!r}", span))


def _enter(index, node, scope, findings):
    if index in scope:
        findings.append(Finding("shadowed-index", f"index {index!r} shadows an outer name", node.span))
    return scope | {index}


def _walk(expr, scope, findings):
    if expr is None or isinstance(expr, Rational):
        return
    if isinstance(expr, (QPow, ZPow)):
        _check_int(expr.exp, scope, findings)
        return
    if isinstance(expr, NumPoly):
        _check_int(expr.poly, scope, findings)
        return
    if isinstance(expr, Pow):
        _check_int(expr.exp, scope, findings)
        _walk(expr.base, scope, findings)
        return
    if isinstance(expr, Neg):
        _walk(expr.arg, scope, findings)
        return
    if isinstance(expr, (Add, Sub, Mul, Div)):
        _walk(expr.left, scope, findings)
        _walk(expr.right, scope, findings)
        return
    if isinstance(expr, (Poch, Theta)):
        for b in expr.bases:
            _walk(b, scope, findings)
        _check_int(expr.step, scope, findings)
        if isinstance(expr, Poch) and expr.length is not None:
            _check_int(expr.length, scope, findings)
        return
    if isinstance(expr, QBinom):
        _check_int(expr.top, scope, findings)
        _check_int(expr.bottom, scope, findings)
        return
    if isinstance(expr, ChainSum):
        inner = scope
        seen = set()
        for idx in expr.indices:
            if idx in seen:
                findings.append(Finding("duplicate-index", f"index {idx!r} repeats", expr.span))
            seen.add(idx)
            inner = _enter(idx, expr, inner, findings)
        _walk(expr.body, inner, findings)
        return
    if isinstance(expr, BilateralSum):
        inner = _enter(expr.index, expr, scope, findings)
        _walk(expr.body, inner, findings)
        return
    if isinstance(expr, RangeSum):
        _check_int(expr.lo, scope, findings)
        _check_int(expr.hi, scope, findings)
        inner = _enter(expr.index, expr, scope, findings)
        _walk(expr.body, inner, findings)
        return
    if isinstance(expr, Appell):
        inner = _enter(expr.index, expr, scope, findings)
        _walk(expr.num, inner, findings)
        _check_int(expr.den, inner, findings)
        return
    if isinstance(expr, Hecke):
        if expr.outer == expr.inner:
            findings.append(Finding("duplicate-index", "outer and inner indices coincide", expr.span))
        inner = _enter(expr.outer, expr, scope, findings)
        inner = _enter(expr.inner, expr, inner, findings)
        _walk(expr.body, inner, findings)
        if expr.den is not None:
            _check_int(expr.den, inner, findings)
        return
    findings.append(Finding("bad-shape", f"unsupported expression {type(expr).__name__}", getattr(expr, "span", None)))


def _probe_finding(e, side: str, spec: IdentitySpec) -> Finding:
    """The finding of an error the probe raised, placed at the refused sum or else at the side."""
    node = e.node if isinstance(e, TerminationError) else None
    if node is not None and e.why == NO_GROWTH:
        code, message = _NO_GROWTH[type(node)]
        return Finding(code, message, node.span)
    code = next(c for cls, c in _PROBE_CODES if isinstance(e, cls))
    if node is None:
        node = spec.lhs if side == "lhs" else spec.rhs
    return Finding(code, f"{side} probe: {e}", node.span)


def _probe_envs(spec: IdentitySpec):
    lo_env: dict = {}
    hi_env: dict = {}
    for p in spec.params:
        lo_env[p.name] = p.lo
        hi_env[p.name] = p.hi if isinstance(p.hi, int) else hi_env[p.hi]
    return [lo_env] if lo_env == hi_env else [lo_env, hi_env]


def validate(spec: IdentitySpec) -> list:
    """Check an identity spec and return a list of findings (empty when clean)."""
    findings: list = []
    scope = set()
    for p in spec.params:
        if p.name in scope:
            findings.append(Finding("duplicate-param", f"parameter {p.name!r} repeats", p.span))
        if isinstance(p.hi, int):
            if p.lo > p.hi:
                findings.append(Finding("empty-range", f"range {p.lo}..{p.hi} is empty", p.span))
        elif p.hi not in scope:
            findings.append(Finding(
                "unknown-name", f"range bound {p.hi!r} is not an earlier parameter", p.span))
        scope.add(p.name)
    if spec.zbind is not None:
        _check_int(spec.zbind.qexp, scope, findings)
    if findings:
        return findings

    for side in (spec.lhs, spec.rhs):
        _walk(side, scope, findings)
    if findings:
        return findings

    for env in _probe_envs(spec):
        try:
            bindings_env(spec, env)
        except SpecError:
            # A dependent range can be empty at a bound (a in 2..m at m = 1);
            # such an env is no binding of the spec, so there is nothing to probe.
            continue
        for side in ("lhs", "rhs"):
            try:
                evaluate(spec, env, side, order=_PROBE_ORDER)
            except (ZDegreeError, BudgetError):
                # Inconclusive: the z-degree guard cap grows with the order
                # and the term budget is a limit of the run, not of the spec.
                # The real evaluation enforces both at the spec's own order.
                continue
            except _PROBE_FINDINGS as e:
                findings.append(_probe_finding(e, side, spec))
        if findings:
            break
    return findings
