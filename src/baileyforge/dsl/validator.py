"""Static validation of identity specs: scope, ranges, shape, termination.

After the static checks, a probe evaluates both sides with the fast
evaluator at order 6, at the lowest and the highest parameter bindings, and
turns a non-settling sum, a non-unit denominator, a pole or a malformed
product into a located finding. The probe never runs the brute-force oracle;
the oracle is reached only through ``--oracle`` and the tests.
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
from . import growth
from .evaluator import bindings_env, evaluate
from .growth import RAY_T, mconst, mmul, mneg
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
    IntLit,
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
    int_eval,
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


@dataclass(frozen=True)
class Finding:
    """One validation defect, located by the offending node's span."""

    code: str
    message: str
    span: Span | None = None


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


def _exponent(body, sub, env, zfold, scale):
    """Upper bound, as ray coefficients, on the lowest q-exponent of body.

    None unless body provably never vanishes. A bound that does not grow
    along a ray means the sum's terms never clear the window.
    """
    _, upper = growth.term_bounds(body, sub, env, scale, zfold)
    return growth.ray_coeffs(upper)


def _walk(expr, scope, findings, zfold, env, scale):
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
        _walk(expr.base, scope, findings, zfold, env, scale)
        return
    if isinstance(expr, Neg):
        _walk(expr.arg, scope, findings, zfold, env, scale)
        return
    if isinstance(expr, (Add, Sub, Mul, Div)):
        _walk(expr.left, scope, findings, zfold, env, scale)
        _walk(expr.right, scope, findings, zfold, env, scale)
        return
    if isinstance(expr, (Poch, Theta)):
        for b in expr.bases:
            _walk(b, scope, findings, zfold, env, scale)
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
        _walk(expr.body, inner, findings, zfold, env, scale)
        _certify_chain(expr, findings, zfold, env, scale)
        return
    if isinstance(expr, BilateralSum):
        inner = _enter(expr.index, expr, scope, findings)
        _walk(expr.body, inner, findings, zfold, env, scale)
        p = _exponent(expr.body, {expr.index: RAY_T}, env, zfold, scale)
        if p is not None and not growth.grows_both_ways(p):
            findings.append(Finding(
                "bilateral-no-growth",
                "two-sided sum needs a positive quadratic exponent to settle",
                expr.span,
            ))
        return
    if isinstance(expr, RangeSum):
        _check_int(expr.lo, scope, findings)
        _check_int(expr.hi, scope, findings)
        inner = _enter(expr.index, expr, scope, findings)
        _walk(expr.body, inner, findings, zfold, env, scale)
        return
    if isinstance(expr, Appell):
        inner = _enter(expr.index, expr, scope, findings)
        _walk(expr.num, inner, findings, zfold, env, scale)
        _check_int(expr.den, inner, findings)
        p = _exponent(expr.num, {expr.index: RAY_T}, env, zfold, scale)
        if p is not None and not growth.grows_both_ways(p):
            findings.append(Finding(
                "appell-no-growth",
                "two-sided sum needs a positive quadratic exponent to settle",
                expr.span,
            ))
        return
    if isinstance(expr, Hecke):
        if expr.outer == expr.inner:
            findings.append(Finding("duplicate-index", "outer and inner indices coincide", expr.span))
        inner = _enter(expr.outer, expr, scope, findings)
        inner = _enter(expr.inner, expr, inner, findings)
        _walk(expr.body, inner, findings, zfold, env, scale)
        if expr.den is not None:
            _check_int(expr.den, inner, findings)
        # For the half region walk rows n = 2t so the edge j = t stays integral.
        outer_t = mmul(RAY_T, mconst(2)) if expr.region == "half" else RAY_T
        for jray in (mconst(0), RAY_T, mneg(RAY_T)):
            p = _exponent(expr.body, {expr.outer: outer_t, expr.inner: jray}, env, zfold, scale)
            if p is not None and not growth.grows_forward(p):
                findings.append(Finding(
                    "hecke-no-growth",
                    "row exponents must grow along every edge of the region",
                    expr.span,
                ))
                break
        return
    findings.append(Finding("bad-shape", f"unsupported expression {type(expr).__name__}", getattr(expr, "span", None)))


def _certify_chain(expr: ChainSum, findings, zfold, env, scale):
    k = len(expr.indices)
    rays = [{idx: RAY_T for idx in expr.indices}]
    if k > 1:
        first = {expr.indices[0]: RAY_T}
        first.update({idx: mconst(0) for idx in expr.indices[1:]})
        rays.append(first)
    for sub in rays:
        p = _exponent(expr.body, sub, env, zfold, scale)
        if p is None:
            return
        if not growth.grows_forward(p):
            findings.append(Finding(
                "chain-no-growth",
                "sum over descending indices needs exponent growth along its rays",
                expr.span,
            ))
            return


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

    envs = _probe_envs(spec)
    zfold = None
    if spec.zbind is not None:
        zfold = (spec.zbind.sign, int_eval(spec.zbind.qexp, envs[0]))
    for side in (spec.lhs, spec.rhs):
        _walk(side, scope, findings, zfold, envs[0], spec.scale)
    if findings:
        return findings

    for env in envs:
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
                code = next(c for cls, c in _PROBE_CODES if isinstance(e, cls))
                findings.append(Finding(
                    code, f"{side} probe: {e}",
                    (spec.lhs if side == "lhs" else spec.rhs).span))
        if findings:
            break
    return findings
