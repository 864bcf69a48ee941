"""Command-line harness: verify, sweep, expand, and list identities."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import registry
from .dsl import (
    bindings_env, context_for, evaluate, evaluate_expr, parse_expr, parse_file, validate,
)
from .dsl.nodes import Appell, BilateralSum, ChainSum, Div, Hecke, Mul, Neg, RangeSum
from .errors import SeriesError, SpecError
from .oracle import brute_force_expand, expand_expr
from .series import render_terms

PASS, FAIL, ERROR = 0, 1, 2


# -- shared helpers ----------------------------------------------------------


def _parse_params(text: str | None) -> dict:
    if not text:
        return {}
    out: dict = {}
    for part in text.split(","):
        name, eq, val = part.partition("=")
        name = name.strip()
        if not name or not eq:
            raise SpecError(f"parameter {part!r} is not name=integer")
        if name in out:
            raise SpecError(f"parameter {name!r} is given twice")
        try:
            out[name] = int(val.strip())
        except ValueError:
            raise SpecError(f"parameter {part!r} is not name=integer")
    return out


def _params_sig(params: dict) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def _exit_code(reports) -> int:
    if any(r.status == "error" for r in reports):
        return ERROR
    if any(r.status == "fail" for r in reports):
        return FAIL
    return PASS


def _report_line(r) -> str:
    bits = [f"{r.status.upper():5}", r.name]
    if r.params:
        bits.append(f"[{_params_sig(r.params)}]")
    bits.append(f"scale {r.scale}")
    bits.append(f"order {r.order}")
    bits.append(r.path)
    bits.append(f"{r.duration_ms}ms")
    line = "  ".join(bits)
    if r.status == "fail" and r.mismatch:
        m = r.mismatch
        qe = str(m["q_exp_num"]) if m["q_exp_den"] == 1 else f"{m['q_exp_num']}/{m['q_exp_den']}"
        line += f"\n      first mismatch at q^{qe} z^{m['z_exp']}: lhs {m['lhs']}, rhs {m['rhs']}"
    elif r.status == "error" and r.detail:
        line += f"\n      {r.detail}"
    return line


def _emit_reports(reports, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([r.json_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(_report_line(r))


def _emit_table(items, scale: int, order: int, fmt: str) -> int:
    """Print a coefficient table from sorted (qexp, zexp, coeff) triples."""
    if fmt == "json":
        rows = [{"q_exp_num": Fraction(qe, scale).numerator,
                 "q_exp_den": Fraction(qe, scale).denominator,
                 "z_exp": ze,
                 "coeff": str(c)} for qe, ze, c in items]
        print(json.dumps({"scale": scale, "order": order, "terms": rows}, indent=2))
        return PASS
    print(render_terms(items, scale))
    return PASS


def _series_items(s):
    return [(qe, ze, c) for qe, ze, c in s.terms()]


def _table_items(table: dict):
    return [(qe, ze, c) for (qe, ze), c in sorted(table.items())]


# -- verify ------------------------------------------------------------------


def _cmd_verify(args) -> int:
    params = _parse_params(args.params)
    reports = []
    for target in args.targets:
        if target in registry.REGISTRY:
            reports.append(registry.verify_entry(target, params, args.order, args.oracle))
        elif target.endswith(".idn") or os.path.exists(target):
            reports.extend(registry.verify_file(target, params, args.order, args.oracle))
        else:
            reports.append(registry.verify_entry(target, params, args.order, args.oracle))
    _emit_reports(reports, args.format)
    return _exit_code(reports)


# -- sweep -------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    if args.target not in registry.REGISTRY:
        print(f"error: unknown catalog entry {args.target!r}", file=sys.stderr)
        return ERROR
    reports = registry.sweep_entry(args.target, args.grid, args.order,
                                   jobs=args.jobs, use_oracle=args.oracle)
    if args.format == "json":
        print(json.dumps([r.json_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(_report_line(r))
        counts = {"pass": 0, "fail": 0, "error": 0}
        for r in reports:
            counts[r.status] += 1
        slowest = max(reports, key=lambda r: r.duration_ms)
        print(f"{counts['pass']}/{len(reports)} pass, {counts['fail']} fail, "
              f"{counts['error']} error; slowest {_params_sig(slowest.params) or '-'} "
              f"({slowest.duration_ms}ms)")
    return _exit_code(reports)


# -- expand ------------------------------------------------------------------

_SUM_NODES = (ChainSum, BilateralSum, RangeSum, Appell, Hecke)


def _contains_sum(expr) -> bool:
    if isinstance(expr, _SUM_NODES):
        return True
    for attr in ("arg", "left", "right", "base", "num", "body"):
        child = getattr(expr, attr, None)
        if child is not None and not isinstance(child, (int, str)) \
                and _contains_sum(child):
            return True
    bases = getattr(expr, "bases", None)
    if bases:
        return any(_contains_sum(b) for b in bases)
    return False


def _core_sum(expr):
    """Strip multiplicative prefactors down to the outermost sum node."""
    if isinstance(expr, _SUM_NODES):
        return expr
    if isinstance(expr, Neg):
        return _core_sum(expr.arg)
    if isinstance(expr, (Mul, Div)):
        in_left = _contains_sum(expr.left)
        in_right = _contains_sum(expr.right)
        if in_left and not in_right:
            return _core_sum(expr.left)
        if in_right and not in_left and isinstance(expr, Mul):
            return _core_sum(expr.right)
    raise SpecError("no unique outermost sum to expose with --raw-sum")


def _expand_spec(spec, entry, args, params) -> int:
    merged = dict(entry.default_params) if entry is not None else {}
    merged.update(params)
    findings = validate(spec)
    if findings:
        for f in findings:
            print(f"error: {f.code}: {f.message}", file=sys.stderr)
        return ERROR
    env = bindings_env(spec, merged)
    order = args.order if args.order is not None else spec.order
    if args.raw_sum:
        core = _core_sum(spec.lhs if args.side == "lhs" else spec.rhs)
        zi = context_for(spec, env, order).z_interp
        if args.oracle:
            zfold = None if zi is None else (zi.sign, zi.qexp)
            table = expand_expr(core, spec.scale, order, zfold, env)
            return _emit_table(_table_items(table), spec.scale, order, args.format)
        s = evaluate_expr(core, spec.scale, order, zi, env)
        return _emit_table(_series_items(s), spec.scale, order, args.format)
    if args.oracle:
        table = brute_force_expand(spec, args.side, merged, order=order)
        return _emit_table(_table_items(table), spec.scale, order, args.format)
    s = evaluate(spec, merged, args.side, order=order)
    return _emit_table(_series_items(s), spec.scale, order, args.format)


def _cmd_expand(args) -> int:
    params = _parse_params(args.params)
    target = args.target
    if target in registry.REGISTRY:
        entry = registry.REGISTRY[target]
        if entry.route == "builtin-engine":
            if args.raw_sum or args.oracle:
                print("error: engine-backed entries have no spec to re-route",
                      file=sys.stderr)
                return ERROR
            if params:
                print("error: entry takes no parameters", file=sys.stderr)
                return ERROR
            order = args.order if args.order is not None else entry.engine_order
            lhs, rhs = entry.engine_check(order)
            s = lhs if args.side == "lhs" else rhs
            return _emit_table(_series_items(s), entry.engine_scale, order, args.format)
        return _expand_spec(registry.load_spec(entry), entry, args, params)
    if target.endswith(".idn") or os.path.exists(target):
        with open(target) as fh:
            specs = parse_file(fh.read())
        if len(specs) != 1:
            print(f"error: {target} must define exactly one identity to expand",
                  file=sys.stderr)
            return ERROR
        return _expand_spec(specs[0], None, args, params)
    expr = parse_expr(target, scale=args.scale)
    order = args.order if args.order is not None else 30
    if args.raw_sum:
        expr = _core_sum(expr)
    if args.oracle:
        table = expand_expr(expr, args.scale, order, None, params)
        return _emit_table(_table_items(table), args.scale, order, args.format)
    s = evaluate_expr(expr, args.scale, order, None, params)
    return _emit_table(_series_items(s), args.scale, order, args.format)


# -- list --------------------------------------------------------------------


def _cmd_list(args) -> int:
    rows = [registry.entry_info(registry.REGISTRY[name]) for name in sorted(registry.REGISTRY)]
    if args.format == "json":
        print(json.dumps({"entries": rows}, indent=2))
        return PASS
    width = max(len(r["name"]) for r in rows)
    gwidth = max(len(r["group"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{width}}  {r['group']:<{gwidth}}  {r['route']:<14}  {r['title']}")
    return PASS


# -- entry point -------------------------------------------------------------


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than lo, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # keeps argparse's "invalid int value" wording
    return parse


def _build_parser() -> argparse.ArgumentParser:
    order = _int_at_least(0)
    ap = argparse.ArgumentParser(
        prog="bailey-forge",
        description="Exact coefficient verification of q-series identities.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify catalog entries or .idn files")
    v.add_argument("targets", nargs="+", help="catalog names or .idn paths")
    v.add_argument("--order", type=order, help="override the scaled truncation order")
    v.add_argument("--params", help="parameter bindings, e.g. m=7,a=1")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--oracle", action="store_true",
                   help="route through the independent brute-force expander")

    s = sub.add_parser("sweep", help="verify one entry across a parameter grid")
    s.add_argument("target", help="catalog entry name")
    s.add_argument("--grid", required=True, help='grid, e.g. "m=1..13,a=0..m"')
    s.add_argument("--order", type=order)
    s.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="concurrent worker processes, at most one per grid point and CPU")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.add_argument("--oracle", action="store_true")

    e = sub.add_parser("expand", help="print a coefficient table")
    e.add_argument("target", help="expression text, catalog name, or .idn path")
    e.add_argument("--side", choices=("lhs", "rhs"), default="lhs")
    e.add_argument("--order", type=order)
    e.add_argument("--params")
    e.add_argument("--scale", type=_int_at_least(1), default=1,
                   help="scale for bare expression targets")
    e.add_argument("--raw-sum", action="store_true", dest="raw_sum",
                   help="expand only the outermost sum, without prefactors")
    e.add_argument("--oracle", action="store_true")
    e.add_argument("--format", choices=("text", "json"), default="text")

    li = sub.add_parser("list", help="list the built-in catalog")
    li.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"verify": _cmd_verify, "sweep": _cmd_sweep,
               "expand": _cmd_expand, "list": _cmd_list}[args.command]
    try:
        return handler(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return ERROR
    except SeriesError as e:
        print(f"error: {e}", file=sys.stderr)
        return ERROR
    except Exception as e:  # a fault with no finding of its own still exits 2, not as a traceback
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
