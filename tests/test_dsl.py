"""Identity language tests: parsing, validation, evaluation, oracle agreement."""

import glob
import hashlib
import json
import os
import pickle
import re
import tempfile
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

import baileyforge.dsl.evaluator
import baileyforge.dsl.growth
import baileyforge.dsl.validator
import baileyforge.oracle
import baileyforge.series
import oracles
from baileyforge import registry as R
from baileyforge.cli import main as cli_main
from baileyforge.dsl import nodes as N
from baileyforge.dsl import (
    BilateralSum,
    IdentitySpec,
    Theta,
    evaluate,
    evaluate_expr,
    parse,
    parse_expr,
    parse_file,
    pretty_print,
    pretty_print_expr,
    validate,
)
from baileyforge.dsl.evaluator import bindings_env
from baileyforge.dsl.growth import (
    RAY_T,
    lower_bounds,
    lower_floor,
    mconst,
    mmul,
    mneg,
    mvar,
    range_values,
    ray_value,
)
from baileyforge.errors import (
    BudgetError,
    DslSyntaxError,
    NonUnitLeadingError,
    PoleError,
    SpecError,
    TerminationError,
    ZDegreeError,
)
from baileyforge.oracle import brute_force_expand, expand_expr
from baileyforge.series import EvalContext, Monomial, hard_cap


def as_dict(s):
    return {(qe, ze): c for qe, ze, c in s.terms()}


def both_sides_match_oracle(spec, bindings=None):
    b = bindings or {}
    lhs = as_dict(evaluate(spec, b, "lhs"))
    rhs = as_dict(evaluate(spec, b, "rhs"))
    ora = brute_force_expand(spec, "lhs", b)
    assert lhs == ora
    assert rhs == brute_force_expand(spec, "rhs", b)
    assert lhs == rhs


def verify_source(src, params=None, use_oracle=False):
    """The one report ``verify_file`` gives for a one-spec source."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.idn")
        with open(path, "w") as fh:
            fh.write(src)
        (report,) = R.verify_file(path, params, use_oracle=use_oracle)
    return report


def codes_of(report) -> set:
    """The finding codes of an error report's ``code: message; ...`` detail."""
    if report.status != "error":
        return set()
    return set(re.findall(r"(?:^|; )([a-z][a-z0-9-]*): ", report.detail))


def run_findings(spec, bindings=None):
    """The located findings of both sides' runs, as ``verify`` maps them."""
    return R.fast_run(spec, ("lhs", "rhs"), lambda side: evaluate(spec, bindings, side))[1]


ROUND_TRIP_SOURCES = [
    """
    identity alpha_sq {
      param m in 1..6
      param a in 0..m
      scale 1 order 20
      lhs sum(n in Z, (-1)^(n) * q^(3*m*binom(n,2) + (m+a)*n))
      rhs theta(q^(m+a), q^(2*m-a), q^(3*m); q^(3*m))
    }
    """,
    """
    identity chain_shape {
      scale 2 order 16
      z = -q^(-1)
      lhs sum(n1 >= n2 >= n3 >= 0, q^(n1*n1 + n2*n2 + n3*n3)
              * qbinom(n1, n2) * qbinom(n2, n3) / poch(q^(2); q^(2), n1))
      rhs poch(q * z, q / z; q^(4)) * theta(q^(4); q^(4)) + num(2 - 3) * q^3
    }
    """,
    """
    identity region_shapes {
      scale 1 order 12
      lhs appell(n, (-1)^(n) * z^(2*n) * q^(2*binom(n,2) + n), n + 1)
      rhs hecke(n, j, half, (-1)^(n+j) * q^(3*binom(n,2) - binom(j,2) + n), n)
        + sum(j in -2..2, z^(j) * q^(j*j))
    }
    """,
    """
    identity arith_shapes {
      scale 1 order 10
      lhs (1 + q) * (1 - q^2) / (1 + q - q^(3)) - z^(-2) * q^(-1) / 2
      rhs 3 / 4 * poch(-q, 2 * q^(2); q, 3) + (-1)^3 * (q + z)^2
    }
    """,
]


class TestParsing:
    @pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
    def test_round_trip_fixpoint(self, src):
        spec = parse(src)
        printed = pretty_print(spec)
        again = parse(printed)
        assert again == spec
        assert pretty_print(again) == printed

    @pytest.mark.parametrize("src,col", [
        ("(" * 400 + "q" + ")" * 400, 101),
        ("(" + "-" * 400 + "q)", 101),
        ("q^(" + "(" * 400 + "1" + ")" * 400 + ")", 103),
        # A flat product builds a left-deep tree; factor 2901, at column
        # 5801, is the right operand of the product at depth 100.
        ("*".join(["q"] * 3000), 5801),
    ], ids=["parentheses", "negations", "exponent", "product"])
    def test_deep_expression_is_a_located_syntax_error(self, src, col):
        with pytest.raises(DslSyntaxError, match="nested deeper than 100 levels") as err:
            parse_expr(src)
        assert (err.value.line, err.value.col) == (1, col)

    def test_expression_at_the_depth_limit_evaluates(self):
        expr = parse_expr("*".join(["q"] * 100))
        assert as_dict(evaluate_expr(expr, order=100)) == {(100, 0): 1}

    def test_expr_round_trip(self):
        e = parse_expr("sum(n in Z, (-1)^(n) * z^(n) * q^(2*binom(n,2) + n))")
        assert parse_expr(pretty_print_expr(e)) == e
        assert isinstance(e, BilateralSum)

    def test_parse_file_many(self):
        text = """
        identity first { scale 1 order 4 lhs q rhs q }
        identity second { scale 2 order 6 lhs z rhs z }
        """
        specs = parse_file(text)
        assert [s.name for s in specs] == ["first", "second"]
        assert isinstance(specs[0], IdentitySpec)
        assert isinstance(parse_expr("theta(q; q)"), Theta)

    def test_scaled_exponent_shorthand(self):
        spec = parse("identity s { scale 2 order 8 lhs q rhs q^(2) }")
        assert as_dict(evaluate(spec, {}, "lhs")) == {(2, 0): F(1)}
        assert as_dict(evaluate(spec, {}, "rhs")) == {(2, 0): F(1)}

    @pytest.mark.parametrize(
        "src",
        [
            "identity bad { scale 1 order 9 lhs q^( rhs 1 }",
            "identity bad { scale 1 order 9 lhs q^n rhs 1 }",
            "identity bad { scale 1 order 9 lhs sum(n in Z q) rhs 1 }",
        ],
    )
    def test_malformed_input_has_located_span(self, src):
        with pytest.raises(DslSyntaxError) as exc:
            parse(src)
        err = exc.value
        start, end = err.span
        assert 0 <= start < end <= len(src)
        assert err.line >= 1 and err.col >= 1

    def test_sum_head_forms(self):
        assert parse_expr("sum(n >= 0, q^(n*n))") is not None
        assert parse_expr("sum(j in -3..3, q^(j*j))") is not None
        with pytest.raises(DslSyntaxError):
            parse_expr("sum(n >= 1, q^(n))")


class TestValidator:
    def test_clean_spec_has_no_findings(self):
        spec = parse(ROUND_TRIP_SOURCES[0])
        assert validate(spec) == []

    def finding_codes(self, src):
        return codes_of(verify_source(src))

    def test_unknown_name(self):
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs q^(k) rhs 1 }")
        assert "unknown-name" in codes

    def test_duplicate_param_and_empty_range(self):
        codes = self.finding_codes("""
        identity x {
          param m in 0..2
          param m in 1..0
          scale 1 order 6
          lhs q^(m) rhs q^(m)
        }
        """)
        assert {"duplicate-param", "empty-range"} <= codes

    def test_shadowed_index(self):
        codes = self.finding_codes("""
        identity x { scale 1 order 6
          lhs sum(n in Z, q^(n*n) * sum(n in 0..2, q^(n)))
          rhs 1
        }
        """)
        assert "shadowed-index" in codes

    def test_bilateral_needs_quadratic_growth(self):
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs sum(n in Z, z^(n) * q^(n)) rhs 1 }")
        assert "bilateral-no-growth" in codes

    def test_bilateral_needs_even_degree(self):
        # n^3 falls along n = -t; n^4 grows both ways.
        codes = self.finding_codes("identity x { scale 1 order 6 lhs sum(n in Z, q^(n^3)) rhs 1 }")
        assert "bilateral-no-growth" in codes
        assert self.finding_codes(
            "identity x { scale 1 order 6 lhs sum(n in Z, q^(n^4 - n)) rhs 1 }") == set()

    def test_chain_without_explicit_growth(self):
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs sum(n >= 0, poch(q; q, n)) rhs 1 }")
        assert "chain-no-growth" in codes

    def test_appell_needs_quadratic_growth(self):
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs appell(n, q^(n), n) rhs 1 }")
        assert "appell-no-growth" in codes

    def test_hecke_needs_growth_on_every_edge(self):
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs hecke(n, j, full, q^(binom(j,2))) rhs 1 }")
        assert "hecke-no-growth" in codes

    def test_growth_counts_the_divisor(self):
        # The term is q^(n): the divisor takes the quadratic growth away.
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs sum(n in Z, q^(n*n) / q^(n*n - n)) rhs 1 }")
        assert codes == {"bilateral-no-growth"}

    def test_probe_catches_non_settling_sum(self):
        # The divisor leaves the term's floor unproven; the run's finding is
        # placed at the refused sum, not at the whole side.
        src = ("identity x { scale 1 order 6 "
               "lhs 1 + sum(n >= 0, q^(2*n) / (1 - q^(n^2 - 2))) rhs 1 }")
        assert self.finding_codes(src) == {"sum-not-settling"}
        (finding,) = run_findings(parse(src))
        assert finding.code == "sum-not-settling"
        assert src[finding.span.start:finding.span.end] == "sum(n >= 0, q^(2*n) / (1 - q^(n^2 - 2)))"
        assert finding.message.endswith("is unproven (in the sum over n)")
        # Each term is q^(2n) - 1: its floor 0 does not grow.
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs sum(n >= 0, q^(2*n) * poch(q^(-2*n); q, 1)) rhs 1 }")
        assert codes == {"chain-no-growth"}

    # Each sum kind around a body q^(a*n^2 + b*n), with the coefficients
    # (of t, of t^2) of its whole term's exponent along each ray. Along n = -t
    # an Appell term's divisor 1 + q^(-t) has lowest exponent -t.
    GROWTH_KINDS = {
        "bilateral-no-growth": ("sum(n in Z, q^({e}))", lambda a, b: [(b, a), (-b, a)]),
        "appell-no-growth": ("appell(n, q^({e}), n)", lambda a, b: [(b, a), (1 - b, a)]),
        "chain-no-growth": ("sum(n >= 0, q^({e}))", lambda a, b: [(b, a)]),
        "hecke-no-growth": ("hecke(n, j, full, q^({e}))", lambda a, b: [(b, a)]),
    }

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(GROWTH_KINDS)), a=st.integers(-2, 2), b=st.integers(-4, 4))
    def test_no_growth_exactly_where_a_ray_does_not_grow(self, kind, a, b):
        # The run's refusal gives the finding, at the sum's span; a sum that
        # grows along every ray settles at order 6 with no finding.
        form, rays = self.GROWTH_KINDS[kind]
        total = form.format(e=f"{a}*n^2 + {b}*n")
        src = f"identity x {{ scale 1 order 6 lhs 1 + {total} rhs 1 }}"
        grows = all(c2 > 0 or (c2 == 0 and c1 > 0) for c1, c2 in rays(a, b))
        finds = run_findings(parse(src))
        if grows:
            assert self.finding_codes(src) == set() and finds == []
        else:
            assert self.finding_codes(src) == {kind}
            assert [f.code for f in finds] == [kind]
            assert src[finds[0].span.start:finds[0].span.end] == total

    def test_probe_catches_non_unit_denominator(self):
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs 1 / (1 + z) rhs 1 }")
        assert "non-unit-denominator" in codes

    def test_probe_catches_pole(self):
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs 1 / poch(q^(0); q, 1) rhs 1 }")
        assert "pole" in codes

    def test_probe_catches_bad_product_base(self):
        codes = self.finding_codes(
            "identity x { scale 1 order 6 lhs poch(1 + q; q, 2) rhs 1 }")
        assert "bad-shape" in codes

    def test_findings_carry_spans(self):
        src = "identity x { scale 1 order 6 lhs q^(k) rhs 1 }"
        finds = validate(parse(src))
        assert finds and all(f.span is not None for f in finds)
        for f in finds:
            assert 0 <= f.span.start < f.span.end <= len(src)


class TestValidatorProbe:
    """Findings past the static checks come from the verify run itself, never the oracle."""

    # Specimens whose findings come from the run, not the static checks.
    PROBED = [
        "identity x { scale 1 order 6 lhs sum(n >= 0, q^(2*n) / (1 - q^(n^2 - 2))) rhs 1 }",
        "identity x { scale 1 order 6 lhs 1 / (1 + z) rhs 1 }",
        "identity x { scale 1 order 6 lhs 1 / poch(q^(0); q, 1) rhs 1 }",
        "identity x { scale 1 order 6 lhs poch(1 + q; q, 2) rhs 1 }",
    ]

    @staticmethod
    def specimens():
        out = [parse(src) for src in TestValidatorProbe.PROBED]
        for sub in ("invalid", "broken"):
            for path in sorted(glob.glob(os.path.join(R.IDENTITY_DIR, sub, "*.idn"))):
                with open(path) as fh:
                    out.extend(parse_file(fh.read()))
        return out

    def test_z_degree_beyond_the_probe_cap_is_not_a_finding(self, tmp_path):
        # z^5 exceeds the guard cap 4 at order 6 but not the cap 5 at order 15.
        src = "identity zdeg3 { scale 1 order 15 lhs z^5 * q^2 rhs z^5 * q^2 }"
        assert validate(parse(src)) == []
        path = tmp_path / "zdeg3.idn"
        path.write_text(src)
        (report,) = R.verify_file(str(path))
        assert report.status == "pass", report.detail

    def test_exhausted_term_budget_is_not_a_finding(self, monkeypatch):
        # The budget is a limit of the run, no defect of the spec: the run
        # ends with its own message, with no finding code.
        monkeypatch.setenv("BAILEY_FORGE_MAX_TERMS", "3")
        spec = parse(ROUND_TRIP_SOURCES[0])
        assert validate(spec) == []
        with pytest.raises(TerminationError, match="budget"):
            evaluate(spec, {"m": 1, "a": 0}, "lhs")
        report = verify_source(ROUND_TRIP_SOURCES[0], {"m": 1, "a": 0})
        assert report.status == "error" and report.detail.startswith("term budget exhausted")

    @pytest.mark.parametrize("lhs,rhs", [
        # A divergent sum that is never evaluated: in an empty range, or
        # under a power 0, which drops its base unread.
        ("sum(m in 1..0, sum(n in Z, q^(n)))", "0"),
        ("(sum(n in Z, q^(n)))^(0)", "1"),
    ], ids=["empty-range", "zero-power"])
    def test_unreached_divergent_sum_is_no_finding(self, tmp_path, lhs, rhs):
        src = f"identity dead {{ scale 1 order 6 lhs {lhs} rhs {rhs} }}"
        assert validate(parse(src)) == []
        path = tmp_path / "dead.idn"
        path.write_text(src)
        (report,) = R.verify_file(str(path))
        assert report.status == "pass", report.detail

    def test_z_degree_past_the_probe_cap_hides_a_divergent_sum(self, tmp_path):
        # z^(10) breaks the z guard at the spec's order 6 before the sum is
        # reached: the guard is a limit of the run, no finding, and the lhs
        # ends there, so the sum's refusal is never raised.
        src = "identity hid { scale 1 order 6 lhs z^(10) + sum(n in Z, q^(n)) rhs 1 }"
        assert validate(parse(src)) == []
        path = tmp_path / "hid.idn"
        path.write_text(src)
        (report,) = R.verify_file(str(path))
        assert report.status == "error"
        assert "no-growth" not in report.detail
        assert cli_main(["verify", str(path)]) == 2

    def test_bound_outside_a_dependent_range_is_not_probed(self):
        # At m = 1 the range of a is empty; only the bindings a run is given
        # are evaluated.
        src = "identity x { param m in 1..3 param a in 2..m scale 1 order 10 lhs q^(a) rhs q^(a) }"
        assert validate(parse(src)) == []
        assert verify_source(src, {"m": 3, "a": 2}).status == "pass"

    def test_findings_do_not_need_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify reached the oracle")

        monkeypatch.setattr(baileyforge.oracle, "brute_force_expand", refuse)
        monkeypatch.setattr(R, "brute_force_expand", refuse)
        reports = [verify_source(src) for src in self.PROBED]
        for sub in ("invalid", "broken"):
            for path in sorted(glob.glob(os.path.join(R.IDENTITY_DIR, sub, "*.idn"))):
                reports.extend(R.verify_file(path))
        assert [sorted(codes_of(r)) for r in reports] == [
            ["sum-not-settling"], ["non-unit-denominator"], ["pole"], ["bad-shape"],
            ["bilateral-no-growth"],  # invalid/divergent_bilateral
            ["chain-no-growth"],      # invalid/divergent_chain
            [],                       # broken/sq_mod3_off_by_term: fails only at q^17
        ]

    def test_validate_runs_no_evaluation(self, monkeypatch):
        # The static checks find nothing in any specimen, and reach no evaluator.
        def refuse(*args, **kwargs):
            raise AssertionError("validate evaluated a side")

        monkeypatch.setattr(baileyforge.dsl.evaluator, "evaluate", refuse)
        monkeypatch.setattr(baileyforge.dsl.evaluator, "evaluate_expr", refuse)
        monkeypatch.setattr(baileyforge.dsl.evaluator, "_run", refuse)
        assert not hasattr(baileyforge.dsl.validator, "evaluate")
        assert [validate(spec) for spec in self.specimens()] == [[]] * 7
        shadowed = parse("identity x { scale 1 order 6 lhs sum(n in Z, sum(n in 0..2, q^(n))) rhs 1 }")
        assert [f.code for f in validate(shadowed)] == ["shadowed-index"]

    def test_verify_evaluates_each_side_once(self, monkeypatch):
        # The refused lhs of divergent_chain gives the finding, and its rhs
        # still runs; a passing file runs each side once too.
        sides = []

        def counted(spec, bindings=None, side="lhs", **kwargs):
            sides.append(side)
            return evaluate(spec, bindings, side, **kwargs)

        monkeypatch.setattr(baileyforge.dsl.evaluator, "evaluate", counted)
        monkeypatch.setattr(R, "evaluate", counted)
        (report,) = R.verify_file(os.path.join(R.IDENTITY_DIR, "invalid", "divergent_chain.idn"))
        assert codes_of(report) == {"chain-no-growth"}
        assert sides == ["lhs", "rhs"]
        sides.clear()
        (report,) = R.verify_file(os.path.join(R.IDENTITY_DIR, "jtp_check.idn"))
        assert report.status == "pass"
        assert sides == ["lhs", "rhs"]

    def test_a_defect_on_each_side_reports_both(self):
        src = "identity two { scale 1 order 6 lhs sum(n in Z, q^(n)) rhs sum(n >= 0, poch(q; q, n)) }"
        report = verify_source(src)
        assert report.detail.split("; ") == [
            "bilateral-no-growth: two-sided sum needs its term exponent to grow along both rays",
            "chain-no-growth: sum over descending indices needs exponent growth along its rays",
        ]

    @pytest.mark.parametrize("name,code", [
        ("divergent_bilateral", "bilateral-no-growth"), ("divergent_chain", "chain-no-growth"),
    ])
    def test_oracle_route_keeps_the_run_finding(self, capsys, name, code):
        # The fast run goes first on --oracle and gives the finding; the
        # oracle's own empty-run rule would end as a bare index-cap error.
        path = os.path.join(R.IDENTITY_DIR, "invalid", f"{name}.idn")
        assert cli_main(["verify", path, "--oracle", "--format", "json"]) == 2
        (row,) = json.loads(capsys.readouterr().out)
        assert (row["status"], row["path"]) == ("error", "oracle")
        assert row["detail"].startswith(code + ": ")

    def test_defect_at_an_unused_binding_shows_only_there(self):
        # q^(m*n*n) grows both ways for m > 0 only: the run at m = 2 passes,
        # and a run over every m finds the defect at m = 0 alone.
        src = ("identity mz { param m in 0..3 scale 1 order 6 "
               "lhs sum(n in Z, q^(m*n*n)) rhs sum(j in -3..3, q^(m*j*j)) }")
        assert [verify_source(src, {"m": m}).status for m in range(4)] == ["error", "pass", "pass", "pass"]
        assert codes_of(verify_source(src, {"m": 0})) == {"bilateral-no-growth"}

    def test_every_catalog_spec_validates_clean(self):
        for entry in R.REGISTRY.values():
            if entry.route == "dsl":
                assert validate(R.load_spec(entry)) == [], entry.name


class TestEvaluator:
    def test_partition_generating_function(self):
        spec = parse("identity p { scale 1 order 8 lhs 1 / theta(q; q) rhs 1 }")
        got = as_dict(evaluate(spec, {}, "lhs"))
        want = {(n, 0): F(c) for n, c in enumerate(oracles.partition_counts(8))}
        assert got == want

    def test_gaussian_binomial(self):
        spec = parse("identity g { scale 1 order 6 lhs qbinom(4, 2) rhs 1 }")
        got = as_dict(evaluate(spec, {}, "lhs"))
        want = {(i, 0): F(c) for i, c in enumerate(oracles.gaussian_binom_poly(4, 2)) if c}
        assert got == want

    def test_first_rogers_ramanujan_head(self):
        spec = parse("""
        identity rr1 { scale 1 order 10
          lhs sum(n >= 0, q^(n*n) / poch(q; q, n))
          rhs 1 / theta(q, q^(4); q^(5))
        }
        """)
        both_sides_match_oracle(spec)
        got = as_dict(evaluate(spec, {}, "lhs"))
        # by hand: partitions into parts with mutual difference >= 2
        head = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]
        assert got == {(n, 0): F(c) for n, c in enumerate(head)}

    def test_triple_product_formal_small(self):
        spec = parse("""
        identity jtp { scale 1 order 12
          lhs sum(n in Z, (-1)^(n) * z^(n) * q^(n*n))
          rhs theta(q * z, q / z, q^(2); q^(2))
        }
        """)
        both_sides_match_oracle(spec)
        want = {(n * n, n): F(-1 if n % 2 else 1) for n in range(-3, 4)}
        assert as_dict(evaluate(spec, {}, "lhs")) == want

    def test_triple_product_folded(self):
        # by hand: z = -q^(-1) sends (-1)^n z^n q^(n*n) to q^(n*n - n),
        # and the exponents pair up, so every surviving coefficient is 2.
        spec = parse("""
        identity jtpf { scale 1 order 12
          z = -q^(-1)
          lhs sum(n in Z, (-1)^(n) * z^(n) * q^(n*n))
          rhs theta(q * z, q / z, q^(2); q^(2))
        }
        """)
        both_sides_match_oracle(spec)
        got = as_dict(evaluate(spec, {}, "lhs"))
        assert got == {(0, 0): F(2), (2, 0): F(2), (6, 0): F(2), (12, 0): F(2)}

    def test_binding_checks(self):
        spec = parse(ROUND_TRIP_SOURCES[0])
        with pytest.raises(SpecError):
            evaluate(spec, {"m": 2}, "lhs")
        with pytest.raises(SpecError):
            evaluate(spec, {"m": 9, "a": 0}, "lhs")
        with pytest.raises(SpecError):
            evaluate(spec, {"m": 2, "a": 1, "extra": 0}, "lhs")
        with pytest.raises(SpecError):
            evaluate(spec, {"m": 2, "a": 3}, "lhs")

    def test_unbound_identifier_reported(self):
        spec = parse("identity x { scale 1 order 6 lhs q^(k) rhs 1 }")
        with pytest.raises(SpecError):
            evaluate(spec, {}, "lhs")

    def test_term_budget_is_enforced(self):
        spec = parse("""
        identity big { scale 1 order 30
          lhs sum(n >= 0, q^(n) / poch(q; q, n))
          rhs 1
        }
        """)
        with pytest.raises(TerminationError):
            evaluate(spec, {}, "lhs", max_terms=5)

    def test_order_override(self):
        spec = parse("identity p { scale 1 order 8 lhs 1 / theta(q; q) rhs 1 }")
        got = as_dict(evaluate(spec, {}, "lhs", order=4))
        want = {(n, 0): F(c) for n, c in enumerate(oracles.partition_counts(4))}
        assert got == want

    def test_product_above_the_order_multiplies_nothing(self, monkeypatch):
        # Valuation 5 + 2 + 0 - 0 = 7 lies above the order 6.
        calls = []
        mul_raw = baileyforge.series._mul_raw
        monkeypatch.setattr(baileyforge.series, "_mul_raw",
                            lambda *args: calls.append(args) or mul_raw(*args))
        expr = parse_expr("q^(5) * (q^(2) + q^(3)) * poch(q; q, 3) / poch(-q; q, 2)")
        assert evaluate_expr(expr, order=6).is_zero()
        assert calls == []
        assert expand_expr(expr, scale=1, order=6) == {}

    def test_zero_factor_under_a_lift_is_recomputed(self):
        # q^(10) + q^(11) truncates to zero at order 6, but q^(-8) lifts it back.
        expr = parse_expr("(q^(10) + q^(11)) * q^(-8)")
        assert as_dict(evaluate_expr(expr, order=6)) == {(2, 0): 1, (3, 0): 1}


class TestOracleAgreement:
    def test_fractional_product_bases_stay_exact(self):
        # Base coefficients 1/3, 1/3 and 1/6 come from Div and a negative Pow;
        # a float anywhere on the way would give inexact coefficients.
        spec = parse("""
        identity fb { scale 1 order 8
          lhs poch(q / 3, 3^(-1) * z * q^(2); q, 3) * theta(q^(2) / 6; q)
          rhs 1
        }
        """)
        got = as_dict(evaluate(spec, {}, "lhs"))
        assert got == brute_force_expand(spec, "lhs")
        assert {type(c) for c in got.values()} == {int, F}

    def test_triple_product_scale_two(self):
        spec = parse("""
        identity jtp2 { scale 2 order 40
          lhs sum(n in Z, (-1)^(n) * z^(n) * q^(2*n*n))
          rhs theta(q * z, q / z, q^(4); q^(4))
        }
        """)
        both_sides_match_oracle(spec)

    def test_theta_family_with_params(self):
        spec = parse(ROUND_TRIP_SOURCES[0])
        for m, a in [(1, 0), (2, 1), (4, 4)]:
            both_sides_match_oracle(spec, {"m": m, "a": a})

    def test_appell_recognized_equals_generic(self):
        spec = parse("""
        identity af { scale 1 order 20
          z = -q^(-1)
          lhs appell(n, (-1)^(n) * z^(2*n) * q^(2*binom(n,2) + n), n)
          rhs sum(n in Z, (-1)^(n) * z^(2*n) * q^(2*binom(n,2) + n) / (1 + q^(n)))
        }
        """)
        both_sides_match_oracle(spec)

    def test_hecke_recognized_equals_generic(self):
        spec = parse("""
        identity hf { scale 1 order 18
          lhs hecke(n, j, full, (-1)^(j) * z^(j) * q^(n*n - binom(j,2)))
          rhs sum(n >= 0, sum(j in -n..n, (-1)^(j) * z^(j) * q^(n*n - binom(j,2))))
        }
        """)
        both_sides_match_oracle(spec)

    def test_hecke_half_region_with_denominator(self):
        spec = parse("""
        identity hd { scale 1 order 16
          lhs hecke(n, j, half, (-1)^(n+j) * q^(3*binom(n,2) - binom(j,2) + n), n)
          rhs hecke(n, j, half, (-1)^(n+j) * q^(3*binom(n,2) - binom(j,2) + n), n)
        }
        """)
        both_sides_match_oracle(spec)

    def test_rogers_ramanujan_scale_two(self):
        spec = parse("""
        identity rr2 { scale 2 order 40
          lhs sum(n >= 0, q^(2*n*n) / poch(q^(2); q^(2), n))
          rhs 1 / theta(q^(2), q^(8); q^(10))
        }
        """)
        both_sides_match_oracle(spec)

    def test_half_integral_factor_split(self):
        spec = parse("""
        identity hp { scale 2 order 30
          lhs theta(q^(1); q^(2)) * theta(q^(2); q^(2))
          rhs theta(q^(1); q^(1))
        }
        """)
        both_sides_match_oracle(spec)

    def test_chain_with_gaussian_weights(self):
        spec = parse("""
        identity cq { scale 1 order 24
          lhs sum(n >= 0, q^(n*n) * sum(k in 0..n, q^(k*k) * qbinom(n, k)) / poch(q; q, n))
          rhs sum(n >= 0, q^(n*n) * sum(k in 0..n, q^(k*k) * qbinom(n, k)) / poch(q; q, n))
        }
        """)
        both_sides_match_oracle(spec)


class TestOracleIndependently:
    def test_expand_expr_euler_product(self):
        got = expand_expr(parse_expr("theta(q; q)"), scale=1, order=12)
        want = {(n, 0): F(c) for n, c in enumerate(oracles.euler_product_coeffs(12)) if c}
        assert got == want

    def test_expand_expr_partitions(self):
        got = expand_expr(parse_expr("1 / theta(q; q)"), scale=1, order=9)
        want = {(n, 0): F(c) for n, c in enumerate(oracles.partition_counts(9))}
        assert got == want

    def test_oracle_rejects_unknown_side(self):
        spec = parse("identity p { scale 1 order 4 lhs q rhs q }")
        with pytest.raises(SpecError):
            brute_force_expand(spec, "middle", {})


class TestProductLowering:
    """Pochhammer and theta factors applied in place, against the oracle."""

    @pytest.mark.parametrize("src,order", [
        # Bases below q^0: each such factor joins the lead monomial.
        ("poch(q^(-3); q^(2), 4)", 8),
        ("1 / poch(q^(-3), -q; q^(2), 3)", 8),
        ("1 / poch(2 * q^(-3); q^(2), 3)", 8),
        # The lead q^-1 lets the factor 1 - q^11 reach q^10.
        ("theta(q^(-1), q^(2); q^(3))", 10),
        ("(poch(q; q, 3))^(-2)", 10),
        ("q^(-5) * theta(q; q) / poch(q^(2); q^(2), 3)", 6),
        ("z * poch(z, q / z; q, 2) / poch(q; q, 4)", 8),
        # by hand: the factor 1 - q^0 at t = 3 makes the product 0.
        ("poch(q^(-3); q, 5)", 8),
        # Two monomials m1 +- m2 are m1 * (-+m2/m1; q)_1, below q^0 too.
        ("q^(-2) / (1 + q^(-3))", 8),
        ("(2*q - 3*q^(-1))^(3) / (q^(2) + q^(3))", 8),
        ("(1 + q^(0)) / (1/2 - q^(2))^(2)", 8),
    ])
    def test_products_match_the_oracle(self, src, order):
        expr = parse_expr(src)
        got = evaluate_expr(expr, order=order)
        assert as_dict(got) == expand_expr(expr, scale=1, order=order)
        assert all(type(c) is int for _, _, c in got.terms() if c.denominator == 1)

    @pytest.mark.parametrize("src", ["(poch(q; q, 1))^(100000000)", "(1 + q)^(-100000000)"])
    def test_power_of_a_factor_costs_no_pass_per_unit(self, src):
        # Applying the runs |p| times would take minutes and gigabytes here.
        expr = parse_expr(src)
        start = time.process_time()
        got = as_dict(evaluate_expr(expr, order=3))
        assert time.process_time() - start < 1
        assert got == expand_expr(expr, scale=1, order=3)

    def test_vanishing_divisor_is_a_pole(self):
        with pytest.raises(PoleError, match="division by a vanishing factor"):
            evaluate_expr(parse_expr("1 / poch(q^(-2); q, 5)"), order=6)

    def test_formal_z_divisor_is_not_a_unit(self):
        with pytest.raises(NonUnitLeadingError):
            evaluate_expr(parse_expr("1 / poch(z; q, 2)"), order=6)
        report = verify_source("identity nu { scale 1 order 6 lhs 1 / poch(z; q, 2) rhs 1 }")
        assert codes_of(report) == {"non-unit-denominator"}


# Products of a nested range sum's term: lengths in n - j, 2*j and j, and
# bases with z (at most one such product) or pure q-powers.
_ROW_LENGTHS = st.sampled_from(["n - j", "2*j", "j"])
_ROW_Z_BASES = st.sampled_from(["z", "-z", "q^({s}) / z", "z, q^({s}) / z"])
_ROW_Q_BASES = st.sampled_from(["q^({s})", "-q^({s})"])


class TestTermsFromTheLast:
    """A product in a sum is reached from its last term where its window does not grow.

    In a range sum nested in another sum it is first reached from its term
    at the same inner index one outer step back (the row).
    """

    LAT2 = ("sum(n >= 0, poch(q; q, 2*n) * sum(j in 0..n, poch(z, q^(4) / z; q^(4), j)"
            " * q^(3*n - 2*j) / (poch(q^(4); q^(4), n - j) * poch(q^(2); q^(2), 2*j))))")

    @pytest.mark.parametrize("src,order,zfold", [
        # Windows shrink: the head q^(n^2) rises along the sum.
        ("sum(n >= 0, poch(z, q / z; q, n) * q^(n^2) / poch(q; q, 2*n))", 16, None),
        ("sum(n >= 0, poch(z, q / z; q, n) * q^(n^2) / poch(q; q, 2*n))", 30, (-1, 1)),
        # z = q^-2 puts factors below q^0 and then a factor 1 - q^0 in the steps.
        ("sum(n >= 0, poch(z, q^(3) / z; q, n) * q^(n^2) / poch(q; q, 2*n))", 24, (1, -2)),
        # The head q^(3n - 2j) falls with j, so j runs down and the windows
        # shrink; from j = 1 to j = 0 the factor 1 - z leaves the numerator.
        # It is no unit, so that term is built anew.
        (LAT2, 14, None),
        (LAT2, 30, (-1, 1)),
        # The head q^((j - 3)^2) falls, then rises: windows grow, then shrink.
        ("sum(j in 0..7, poch(z; q, j) * q^((j - 3)^2) / poch(q; q, 7 - j))", 12, None),
        ("sum(j in 0..7, poch(z; q, j) * q^((j - 3)^2) / poch(q; q, 7 - j))", 20, (1, 1)),
        # A moving base: 1 + q^(2n) is taken out whole and the next one put in.
        ("sum(n >= 0, poch(z, q^(2) / z; q^(2), n) * q^(n) / ((1 + q^(2*n)) * poch(q; q, 2*n)))",
         16, None),
        # An infinite product beside finite ones, and a rational head.
        ("sum(n >= 0, theta(-q; q) * poch(-q; q^(2), n) * q^(n^2) / (2 * poch(q^(2); q^(2), n)))",
         24, None),
    ])
    def test_sums_match_the_oracle(self, src, order, zfold):
        expr = parse_expr(src)
        zi = None if zfold is None else Monomial(*zfold)
        got = evaluate_expr(expr, order=order, z_interp=zi)
        assert as_dict(got) == expand_expr(expr, scale=1, order=order, zfold=zfold)

    def test_shrinking_windows_apply_few_factors(self, monkeypatch):
        # by hand: from n - 1 to n the product gains 1 - q^(2n) on top and
        # 1 - q^(2n - 1), 1 - q^(2n) below, 3 factors where 3n build it anew.
        # Terms n = 1..9 reach the order 100; n = 1, 2, 3 save too little and
        # are built anew, n = 4..9 take the 3 factors.
        expr = parse_expr("sum(n >= 0, poch(q^(2); q^(2), n) * q^(n^2) / poch(q; q, 2*n))")
        factors = baileyforge.series._factors
        seen = []

        def counted(runs, n, divide):
            out = factors(runs, n, divide)
            seen.append(len(out[0]))
            return out

        monkeypatch.setattr(baileyforge.series, "_factors", counted)
        got = evaluate_expr(expr, order=100)
        stepped = sum(seen)
        seen.clear()
        monkeypatch.setattr(baileyforge.series, "_delta", lambda *args: None)
        assert as_dict(evaluate_expr(expr, order=100)) == as_dict(got)
        assert stepped == 3 + 6 + 9 + 3 * 6
        assert sum(seen) == 3 * sum(range(1, 10))

    @staticmethod
    def factors_applied(monkeypatch, name: str) -> tuple:
        """(kernel calls, factors applied) of one evaluation of the catalog entry's lhs."""
        spec = R.load_spec(R.REGISTRY[name])
        spec.plans.clear()
        factors = baileyforge.series._factors
        seen = []

        def counted(runs, n, divide):
            out = factors(runs, n, divide)
            seen.append(len(out[0]))
            return out

        monkeypatch.setattr(baileyforge.series, "_factors", counted)
        evaluate(spec, {}, "lhs")
        return len(seen), sum(seen)

    def test_rows_apply_fewer_factors(self, monkeypatch):
        # From (n - 1, j) to (n, j) only the divisor (q^4; q^4)_(n - j) gains
        # a factor, where the step from (n, j + 1) changes five. Stepping
        # from the last term alone applied 3162 factors to this side, and
        # 2527 while each outer term applied poch(q; q, 2*n) anew.
        assert self.factors_applied(monkeypatch, "hecke_odd_counts") == (1020, 1727)

    def test_outer_sum_in_horner_form_applies_fewer_factors(self, monkeypatch):
        # The outer sum adds poch(q; q, 2*n) * X(n) in Horner form: each step
        # applies the two factors that changed, where each term applied its
        # 2n anew (2538 factors in as many kernel calls).
        assert self.factors_applied(monkeypatch, "hecke_half_lat2") == (1020, 1738)

    @staticmethod
    def held(src, order):
        """What one evaluation of src holds for its products to step from."""
        ev = baileyforge.dsl.evaluator
        st = ev._St(EvalContext(1, order), {}, baileyforge.series._Budget(), {}, {})
        ev._compile(parse_expr(src), 1)(st)
        return st.lasts

    def test_top_level_range_holds_one_term_per_plan(self):
        src = "sum(j in 0..9, poch(-q; q, j) * q^(j) / (poch(q; q, 9 - j) * poch(q; q, 2*j)))"
        (last,) = self.held(src, 40).values()
        assert type(last) is tuple

    def test_nested_range_holds_one_row_as_wide_as_its_range(self):
        # The last run is n = 8, over j = 8..10: the rows of earlier runs,
        # j = 0..9, are gone, and each index holds the one product's term.
        src = ("sum(n in 0..8, sum(j in n..n + 2, poch(-q; q, j) * q^(j)"
               " / (poch(q; q, j - n) * poch(q; q, 2*j))))")
        held = self.held(src, 60)
        rows = [v for v in held.values() if type(v) is dict]
        assert len(held) == 2 and len(rows) == 1
        assert sorted(rows[0]) == [8, 9, 10]
        assert all(len(terms) == 1 for terms in rows[0].values())

    def test_row_term_above_the_new_head_is_refused(self, monkeypatch):
        # The head q^(3j - n) falls from (n - 1, j) to (n, j), so no row term
        # may be stepped from: the term comes from the last one, (n, j - 1),
        # or is built anew.
        # Every term is at least q^(2n) (j = n + j' with j' >= 0), so the
        # outer sum stops at n = 12 for the order 24.
        term = "poch(-q; q, j) * q^(3*j - n) / (poch(q; q, j - n) * poch(q; q, 2*j))"
        expr = parse_expr(f"sum(n >= 0, sum(j in n..2*n, {term}))")
        by_term = parse_expr(term)
        want = evaluate_expr(parse_expr("0"), order=24)
        for n in range(13):
            for j in range(n, 2 * n + 1):
                want = want + evaluate_expr(by_term, order=24, env={"n": n, "j": j})
        from_last = baileyforge.dsl.evaluator._from_last
        above = []

        def spy(ctx, lasts, key, reads, head, read, row=None):
            held = row.get(key) if row is not None else None
            if held is not None and held[2][2] > head.min_exponent():
                above.append(held)
            return from_last(ctx, lasts, key, reads, head, read, row)

        monkeypatch.setattr(baileyforge.dsl.evaluator, "_from_last", spy)
        # Stepping as it is, wherever the guards allow it, and off.
        for pairing in (baileyforge.series._PAIRING, -10**9, 10**9):
            monkeypatch.setattr(baileyforge.series, "_PAIRING", pairing)
            assert as_dict(evaluate_expr(expr, order=24)) == as_dict(want), pairing
        assert above

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(0, 2), d=st.integers(-2, 2), e=st.integers(0, 2),
           outer=st.booleans(), zpoch=st.none() | st.tuples(_ROW_Z_BASES, _ROW_LENGTHS, st.integers(1, 3)),
           pochs=st.lists(st.tuples(_ROW_Q_BASES, _ROW_LENGTHS, st.integers(1, 3), st.booleans()),
                          min_size=1, max_size=3),
           zfold=st.none() | st.tuples(st.sampled_from([1, -1]), st.integers(-1, 2)),
           order=st.integers(8, 14))
    def test_row_steps_match_the_oracle(self, a, d, e, outer, zpoch, pochs, zfold, order):
        # Nested range sums whose products step from the row and from the
        # last term, checked against the oracle with stepping as it is, off,
        # and wherever the guards allow it. The inner head c*n + d*j >= 0 keeps
        # formal z inside its guard; one z product at most does too. A term
        # is at least q^((a + e)*n - 2), so the outer sum ends.
        assume(a + e > 0)
        c = max(0, -d) + e
        body = f"q^({c}*n + {d}*j)"
        if zpoch is not None:
            bases, length, step = zpoch
            body += f" * poch({bases.format(s=step)}; q^({step}), {length})"
        for bases, length, step, over in pochs:
            body += f" {'/' if over else '*'} poch({bases.format(s=step)}; q^({step}), {length})"
        src = (f"sum(n >= 0, {'poch(q; q, 2*n) * ' if outer else ''}q^({a}*n)"
               f" * sum(j in 0..n, {body}))")
        expr = parse_expr(src)
        want = expand_expr(expr, scale=1, order=order, zfold=zfold)
        zi = None if zfold is None else Monomial(*zfold)
        for pairing in (baileyforge.series._PAIRING, 10**9, -10**9):
            with mock.patch.object(baileyforge.series, "_PAIRING", pairing):
                assert as_dict(evaluate_expr(expr, order=order, z_interp=zi)) == want, pairing

    @pytest.mark.parametrize("body,env,want", [
        # by hand: the exponents 3n - 2j and (j - 3)^2 bound the terms.
        ("q^(3*n - 2*j) / poch(q; q, j)", {"n": 4}, [12, -2]),
        ("poch(z, q^(4) / z; q^(4), j) * q^(2*j) / (1 + q^(4*j))", {}, [0, 2]),
        ("q^((j - 3)^2)", {}, [9, -6, 1]),
        # A bound name is a constant of either sign.
        ("q^(3*n - 2*j)", {"n": -1}, [-3, -2]),
    ])
    def test_floor_along(self, body, env, want):
        floor = lower_floor(parse_expr(body), ({"j": RAY_T},), 1)
        assert floor(env, None) == want

    def test_range_terms_above_the_order_are_skipped(self, monkeypatch):
        # by hand: q^(3n - 2j) <= 6 needs j >= (3n - 6)/2, so row n = 4 reads
        # j = 3, 4 only, and the terms come highest j first.
        seen = []
        read = baileyforge.dsl.evaluator._St.read

        def spy(st, args):
            seen.append(args[2])
            return read(st, args)

        monkeypatch.setattr(baileyforge.dsl.evaluator._St, "read", spy)
        expr = parse_expr("sum(j in 0..4, q^(12 - 2*j) / poch(q; q, j))")
        assert as_dict(evaluate_expr(expr, order=6)) == expand_expr(expr, scale=1, order=6)
        assert seen == [4, 3]


_FOLD_INNERS = [
    # The inner sums of the hecke_*_lat2 and hecke_odd_counts entries.
    "poch(z, q^(4) / z; q^(4), j) * q^(3*n - 2*j) / (poch(q^(4); q^(4), n - j) * poch(q^(2); q^(2), 2*j))",
    "poch(-q^(2), -q^(2); q^(4), j) * q^(3*n - 2*j) / (poch(q^(4); q^(4), n - j) * poch(q^(2); q^(2), 2*j))",
    # The inner sum of the hecke_*_lat1 entries, whose head does not read n.
    "poch(z, q^(4) / z; q^(4), j) * q^(2*j)"
    " / ((1 + q^(4*j)) * poch(q^(4); q^(4), n - j) * poch(q^(2); q^(2), 2*j))",
]


class TestHornerFold:
    """A sum of terms head * runs * X, X a nested sum, is added in Horner form over its index.

    A falling head and a refused step are checked on their own shapes, and
    every error is raised where the term built at its own index raises it.
    """

    @staticmethod
    def spied(monkeypatch, fold=True):
        """Record what each fold holds and how many steps it refuses; without fold, hold nothing."""
        ev = baileyforge.dsl.evaluator
        horner, delta, held = ev._horner, ev._delta, ev._held
        seen = {"held": [], "refused": 0, "at": []}

        def spy_horner(st, parts, acc):
            seen["held"].append(list(parts))
            return horner(st, parts, acc)

        def spy_delta(*args):
            step = delta(*args)
            seen["refused"] += step is None
            return step

        def spy_held(st, head, reads, x):
            seen["at"].append(dict(st.env))
            return held(st, head, reads, x) if fold else None

        monkeypatch.setattr(ev, "_horner", spy_horner)
        monkeypatch.setattr(ev, "_delta", spy_delta)
        monkeypatch.setattr(ev, "_held", spy_held)
        return seen

    @pytest.mark.parametrize("src,order,refuses", [
        # The term's floor 10 - j rises as j falls, so j runs 4..0 and the
        # head q^(j) falls at every step: each step folds, shifting H down.
        ("sum(j in 0..4, q^(j) * poch(q; q, j) * sum(i in 0..1, q^(10 - 2*j + i)))", 12, False),
        # The power 1 - n drops its base at n = 1, so the reads do not pair.
        ("sum(n in 0..2, (1 - q^(n + 1))^(1 - n) * sum(j in 0..n, q^(j)))", 10, True),
    ])
    def test_steps_match_the_oracle(self, monkeypatch, src, order, refuses):
        seen = self.spied(monkeypatch)
        expr = parse_expr(src)
        assert as_dict(evaluate_expr(expr, order=order)) == expand_expr(expr, scale=1, order=order)
        assert seen["held"], "the fold did not run"
        assert bool(seen["refused"]) == refuses
        if not refuses:
            heads = [head[2] for held in seen["held"] for head, _, _ in held]
            assert heads == sorted(heads, reverse=True) and heads[0] > heads[-1]

    @settings(max_examples=40, deadline=None)
    @given(outer=st.lists(st.tuples(st.sampled_from(["q", "-q", "q^(2)"]), st.integers(1, 2),
                                    st.sampled_from(["n", "2*n"])), min_size=1, max_size=2),
           a=st.integers(0, 2), pole=st.none() | st.tuples(st.integers(1, 2), st.integers(-1, 1)),
           zhead=st.booleans(), inner=st.sampled_from(_FOLD_INNERS),
           zfold=st.none() | st.tuples(st.sampled_from([1, -1]), st.integers(-1, 2)),
           order=st.integers(8, 14))
    def test_fold_matches_the_oracle(self, outer, a, pole, zhead, inner, zfold, order):
        # sum(n >= 0, [z^(n) *] q^(a*n) * poch(...) [* poch(...)] [/ (1 + q^(c*n + d))]
        # * sum(j in 0..n, inner)), with the fold and with every term built
        # at its own index: the same value, or the same error. Unless z is
        # q^-1 or -q^-1, no term needs a lift, so the fold runs, but for a
        # formal z in the head, which keeps each term at its own index.
        head = ("z^(n) * " if zhead else "") + f"q^({a}*n)"
        pochs = "".join(f" * poch({b}; q^({s}), {length})" for b, s, length in outer)
        den = "" if pole is None else f" / (1 + q^({pole[0]}*n + {pole[1]}))"
        expr = parse_expr(f"sum(n >= 0, {head}{pochs}{den} * sum(j in 0..n, {inner}))")
        zi = None if zfold is None else Monomial(*zfold)
        results, held = [], []
        for fold in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                seen = self.spied(mp, fold)
                try:
                    results.append(as_dict(evaluate_expr(expr, order=order, z_interp=zi)))
                except (ZDegreeError, TerminationError) as e:
                    results.append((type(e), str(e)))
                held.append(seen["held"])
        assert results[0] == results[1]
        assert not held[1]
        if type(results[0]) is dict:
            assert held[0] or (zfold is None and zhead) or (zfold is not None and zfold[1] < 0), \
                "the fold did not run"
            assert results[0] == expand_expr(expr, scale=1, order=order, zfold=zfold)

    def test_divisor_errors_stay_at_their_term(self):
        # 1 - z^n has no positive q-exponent, at n = 1 and at n = 2: the
        # error is the one of n = 1, where each term built at its own index
        # raises first.
        expr = parse_expr("sum(n in 1..2, sum(j in 0..1, q^(j)) / poch(z^(n); q, 1))")
        with pytest.raises(NonUnitLeadingError, match=r"z\^1\*q\^0"):
            evaluate_expr(expr, order=8)

    def test_z_guard_errors_stay_at_their_term(self, monkeypatch):
        # z^3 * X(n) passes the guard cap 4 at n = 2. The formal z in the
        # head keeps every term at its own index, with the fold or without.
        expr = parse_expr("sum(n in 0..3, z^(3) * poch(q; q, n) * sum(j in 0..n, z^(j) * q^(j)))")
        errors = []
        for fold in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                seen = self.spied(mp, fold)
                with pytest.raises(ZDegreeError) as e:
                    evaluate_expr(expr, order=8)
                errors.append(str(e.value))
                assert [env["n"] for env in seen["at"]] == [0, 1, 2]
        assert errors[0] == errors[1]
        assert errors[0] == "z-exponent 5 at q-exponent 2 exceeds guard cap 4 (scale 1, order 8)"

    def test_budget_runs_out_at_the_same_index(self, monkeypatch):
        # Each index spends the units it spends when its term is built at its
        # own index, so every budget runs out at the same term or suffices.
        expr = parse_expr(TestTermsFromTheLast.LAT2)
        outcomes = {True: [], False: []}
        for fold in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                seen = self.spied(mp, fold)
                for max_terms in range(0, 200):
                    seen["at"].clear()
                    try:
                        got = as_dict(evaluate_expr(expr, order=10, max_terms=max_terms))
                    except BudgetError:
                        got = None
                    outcomes[fold].append((max_terms, [env.get("n") for env in seen["at"]], got))
        assert outcomes[True] == outcomes[False]
        assert outcomes[True][0][2] is None and outcomes[True][-1][2] is not None


class TestSummationLimits:
    """Sums stop at a certified last index, or are refused where no term bound proves one."""

    # Every nonzero term sits near n = 20, after more than 8 empty terms.
    LATE = "identity late { scale 1 order 6 lhs sum(n >= 0, q^((n - 20)^2)) rhs 1 + 2*q + 2*q^(4) }"
    LATE_BILATERAL = (
        "identity late_z { scale 1 order 6 lhs sum(n in Z, q^((n - 20)^2)) rhs 1 + 2*q + 2*q^(4) }")
    # The divisor truncates to zero at order 6; its valuation is 10.
    HI = "identity hi { scale 1 order 20 lhs q^(10) / (q^(10) + q^(11)) rhs 1 / (1 + q) }"
    # True: the terms at n = 18..22 give 1 + 2q + 2q^4, and the divisor
    # 1 - q^(n^2 - 2) is 1 there up to the order. But the divisor's floor is
    # unproven, so the sum has no certified last index.
    UNCERTIFIED = ("identity uncertified { scale 1 order 6 "
                   "lhs sum(n >= 0, q^((n - 20)^2) / (1 - q^(n^2 - 2))) rhs 1 + 2*q + 2*q^(4) }")

    @staticmethod
    def verify_source(tmp_path, src, use_oracle=False):
        path = tmp_path / "spec.idn"
        path.write_text(src)
        (report,) = R.verify_file(str(path), use_oracle=use_oracle)
        return report

    @pytest.mark.parametrize("src", [LATE, LATE_BILATERAL, HI], ids=["late", "late_z", "hi"])
    def test_true_identities_pass(self, tmp_path, src):
        report = self.verify_source(tmp_path, src)
        assert report.status == "pass", report.detail

    @staticmethod
    def visited(p, start, order=6):
        """The indices t >= start that a ray of q^(p(t)) visits, or None when it is refused.

        p is given as integer ray coefficients.
        """
        exp = " + ".join(f"({c})*n^{k}" if k else f"({c})" for k, c in enumerate(p))
        ev = baileyforge.dsl.evaluator
        ray = ev._Ray(parse_expr(f"q^({exp})"), ({"n": RAY_T},), 1)
        st = ev._St(EvalContext(1, order), {}, baileyforge.series._Budget(), {}, {})
        try:
            return [t for r in ray.indices(st, start) for t in r]
        except TerminationError:
            return None

    @pytest.mark.parametrize("p,start,want", [
        ((400, -40, 1), 0, 22),    # (t - 20)^2 <= 6 up to t = 22
        ((400, 40, 1), 1, 0),      # (t + 20)^2 > 6 from t = 1: no term
        ((-1000, 1), 0, None),     # t - 1000 <= 6 past the cap 28
        ((5,), 0, None),           # no growth
        ((0, 3, -1), 0, None),     # falls
        ((1610, -80, 1), 0, -1),   # (t - 40)^2 + 10 > 6 everywhere, vertex past the cap: no term
    ])
    def test_last_index(self, p, start, want):
        # The last index a ray visits (start - 1 when it visits none), or
        # None when it is refused.
        got = self.visited(p, start)
        assert (None if got is None else max(got, default=start - 1)) == want

    def test_two_sided_sum_is_refused_before_its_terms(self):
        # The ray up from 0 grows, but its term z^5 q^5 would break the z
        # guard at order 6; the ray down does not grow, and both rays are
        # certified before any term is built.
        with pytest.raises(TerminationError) as refused:
            evaluate_expr(parse_expr("sum(n in Z, z^(n) * q^(n))"), order=6)
        assert str(refused.value) == ("sum has no certified last index:"
                                      " its term bound does not grow (in the sum over n)")
        assert isinstance(refused.value.node, BilateralSum)

    def test_vertex_past_the_cap_spends_no_term(self):
        # by hand: (n - 40)^2 + 10 > 6 for every n, so the last index is -1
        # and the sum is 0 without a term, within a budget of none.
        expr = parse_expr("sum(n >= 0, q^((n - 40)^2 + 10))")
        assert as_dict(evaluate_expr(expr, order=6, max_terms=0)) == {}

    def test_bilateral_quartic_settles(self, tmp_path):
        # by hand: n^4 <= 20 at n = 0, +-1, +-2 gives 1 + 2q + 2q^16.
        src = "identity quart { scale 1 order 20 lhs sum(n in Z, q^(n^4)) rhs 1 + 2*q + 2*q^(16) }"
        assert validate(parse(src)) == []
        assert as_dict(evaluate(parse(src), {}, "lhs")) == {(0, 0): 1, (1, 0): 2, (16, 0): 2}
        assert self.verify_source(tmp_path, src).status == "pass"

    def test_last_index_past_the_cap_is_not_settling(self):
        report = verify_source("identity far { scale 1 order 6 lhs sum(n >= 0, q^(n - 1000)) rhs 0 }")
        assert codes_of(report) == {"sum-not-settling"}

    @pytest.mark.parametrize("src", [
        # by hand: the terms at n = 38..42 give 1 + 2q + 2q^4, past the cap 28.
        "sum(n >= 0, q^((n - 40)^2))",
        "sum(n in Z, q^((n + 40)^2))",
        # 1/(1 + q^n) has lowest exponent 0 along n >= 0, so the numerator's
        # exact bound is the whole term's there.
        "appell(n, q^((n - 40)^2) * poch(-q; q, 1), n)",
        # A cubic: the term at n = 40 is q^0, past the cap 28 and below the
        # bound's vertex.
        "sum(n >= 0, q^((n - 40)^2 * (n + 1)))",
    ])
    def test_exact_bound_past_the_cap_is_not_settling(self, src):
        with pytest.raises(TerminationError, match="no certified last index"):
            evaluate_expr(parse_expr(src), order=6)
        report = verify_source(f"identity late40 {{ scale 1 order 6 lhs {src} rhs 1 + 2*q + 2*q^(4) }}")
        assert codes_of(report) == {"sum-not-settling"}

    @pytest.mark.parametrize("src", [
        # The vertex lies a million indices past the cap: found without a scan.
        "sum(n >= 0, q^((n - 1000000)^2))",
        # A falling exact bound reaches the order for good past the cap, at n = 94.
        "sum(n >= 0, q^(100 - n))",
    ])
    def test_far_or_falling_exact_bound_is_not_settling(self, src):
        start = time.process_time()
        with pytest.raises(TerminationError, match="no certified last index"):
            evaluate_expr(parse_expr(src), order=6)
        assert time.process_time() - start < 1

    @settings(max_examples=200, deadline=None)
    @given(p=st.lists(st.integers(-60, 60), min_size=1, max_size=5),
           start=st.integers(0, 30), order=st.integers(0, 10))
    def test_dips_past_matches_a_scan(self, p, start, order):
        # A ray without an end is refused when its floor p does not grow, or
        # when p dips to the order past the cap; otherwise it visits every
        # index at which p is at most the order. Every root of p - order is
        # at most 1 + 70 in magnitude, so a scan to start + 200 sees them all.
        while len(p) > 1 and not p[-1]:
            p.pop()
        want = [t for t in range(start, start + 200) if ray_value(p, t) <= order]
        if len(p) < 2 or p[-1] < 0 or any(t > hard_cap(EvalContext(1, order)) for t in want):
            want = None
        got = self.visited(p, start, order)
        assert (got if got is None else sorted(got)) == want

    def test_divisor_below_q0_keeps_the_bound_exact(self, monkeypatch):
        # by hand: q^(n - 40) / (1 - q^(-40)) = -q^n / (1 - q^40), so the sum
        # is -(1 + q + ... + q^6) at order 6. The divisor's lowest exponent is
        # exactly -40, so the term's bound is n, not n - 40, and the sum stops
        # at the certified last index 6, well inside the cap 28.
        spec = parse("identity neg { scale 1 order 6 "
                     "lhs sum(n >= 0, q^(n - 40) / poch(q^(-40); q, 1)) "
                     "rhs -1 / (poch(q; q, 1) * poch(q^(40); q, 1)) }")
        assert validate(spec) == []
        one_sided = baileyforge.dsl.evaluator._one_sided
        visits = []

        def recorded(st, emit, ranges, direction, acc):
            visits.append([t for r in ranges for t in r])
            return one_sided(st, emit, ranges, direction, acc)

        monkeypatch.setattr(baileyforge.dsl.evaluator, "_one_sided", recorded)
        assert as_dict(evaluate(spec, {}, "lhs")) == {(k, 0): -1 for k in range(7)}
        assert visits == [list(range(7))]

    @pytest.mark.parametrize("src,want", [
        # 1 - q^(-40) has lowest exponent exactly -40, so its inverse 40.
        ("1 / poch(q^(-40); q, 1)", ({(): 40}, {(): 40})),
        # With a moving length the product may stop before (1 + q^(-1)) or
        # even (1 + q^(-2)): its lowest exponent is only known to be <= 0,
        # and at least -3.
        ("1 / poch(-q^(-2); q, n)", ({}, {(): 3})),
        # 1 + q^(2n) = (-q^(2n); q)_1 has lowest exponent exactly 0 for
        # n >= 0, and is 2 at n = 0.
        ("1 / (1 + q^(2*n))", ({}, {})),
        # 1 - q^n vanishes at n = 0, so its inverse has no lower bound.
        ("1 / (1 - q^(n))", (None, {})),
        # The exponent n - 3 changes sign: 1 + q^(n - 3) has lowest exponent
        # min(0, n - 3), known only to lie in [-3, 0].
        ("1 / (1 + q^(n - 3))", ({}, {(): 3})),
    ])
    def test_divisor_bound_of_a_product(self, src, want):
        assert lower_bounds(parse_expr(src), {"n": mvar("n")}, 1)({}, None) == want

    def test_divisor_above_the_order_keeps_its_precision(self):
        # The divisor's valuation 10 lies above the order 6 and above the
        # numerator's 1; the exact value is q^-9 - q^-8.
        expr = parse_expr("q / (q^(10) + q^(11) / poch(q; q, 1))")
        want = {k: c for k, c in expand_expr(expr, scale=1, order=20).items() if k[0] <= 6}
        assert want == {(-9, 0): 1, (-8, 0): -1}
        assert as_dict(evaluate_expr(expr, order=6)) == want
        # A divisor of valuation 1 within the order: exactly q^-1 - 1.
        expr = parse_expr("1 / (q + q^(2) / poch(q; q, 1))")
        assert as_dict(evaluate_expr(expr, order=3)) == expand_expr(expr, scale=1, order=3)

    def test_certified_sum_spends_one_unit_per_term(self):
        # q^(n*n) <= 6 up to n = 2: three terms, one unit each, as a range
        # or two-sided sum spends.
        spec = parse("identity sq { scale 1 order 6 lhs sum(n >= 0, q^(n*n)) rhs 1 }")
        assert as_dict(evaluate(spec, {}, "lhs", max_terms=3)) == {(0, 0): 1, (1, 0): 1, (4, 0): 1}
        with pytest.raises(BudgetError):
            evaluate(spec, {}, "lhs", max_terms=2)

    @pytest.mark.parametrize("src,units", [
        # One unit per range term.
        ("sum(j in 0..9, 1)", 10),
        # by hand: n^2 <= 6 up to n = 2, so rows of 1, 3 and 5 terms: one
        # unit per row and one per row term.
        ("hecke(n, j, full, q^(n*n))", 3 + 9),
    ])
    def test_range_and_row_terms_spend_the_budget(self, src, units):
        expr = parse_expr(src)
        evaluate_expr(expr, order=6, max_terms=units)
        with pytest.raises(BudgetError):
            evaluate_expr(expr, order=6, max_terms=units - 1)

    def test_wide_range_stops_at_the_budget(self):
        # Every term is 1, at most the order, so each of the 100001 is visited.
        with pytest.raises(BudgetError):
            evaluate_expr(parse_expr("sum(j in 0..100000, 1)"), order=5, max_terms=10)

    def test_vanishing_divisor_is_not_settling(self):
        # poch(q^(-2); q, n) vanishes from n = 3 on, so the term has no
        # proven floor: the sum is refused before it reaches the pole.
        report = verify_source(
            "identity x { scale 1 order 6 lhs sum(n >= 0, q^(n*n) / poch(q^(-2); q, n)) rhs 1 }")
        assert codes_of(report) == {"sum-not-settling"}

    def test_uncertified_sum_is_an_error(self, tmp_path, capsys):
        report = self.verify_source(tmp_path, self.UNCERTIFIED)
        assert report.status == "error"
        assert report.detail.startswith("sum-not-settling: lhs: sum has no certified last index")
        assert cli_main(["verify", str(tmp_path / "spec.idn")]) == 2
        assert "sum-not-settling" in capsys.readouterr().out

    def test_uncertified_sum_is_an_error_on_the_oracle_route(self, tmp_path, capsys):
        # The fast run goes first and its finding stands; the oracle's
        # empty-run rule would miss the late terms and report a FAIL.
        report = self.verify_source(tmp_path, self.UNCERTIFIED, use_oracle=True)
        assert (report.status, report.path) == ("error", "oracle")
        assert report.detail.startswith("sum-not-settling: lhs: sum has no certified last index")
        assert cli_main(["verify", str(tmp_path / "spec.idn"), "--oracle"]) == 2

    @pytest.mark.parametrize("src", [
        "sum(n >= 0, q^((n - 20)^2) / (1 - q^(n^2 - 2)))",
        # A sum's lower bound is the coefficientwise minimum of its parts',
        # here 0 along the whole ray: it does not grow.
        "sum(n >= 0, (q^(n*n) + q^(n)) / poch(q; q, n))",
        "appell(n, q^(n*n) / (1 - q^(n - 2)), n)",
        "hecke(n, j, full, q^(2*n*n - j*j) / (1 - q^(n - j)))",
    ])
    def test_uncertified_sums_are_refused(self, src):
        with pytest.raises(TerminationError, match="no certified last index"):
            evaluate_expr(parse_expr(src), order=6)

    @pytest.mark.parametrize("src,order", [
        # A generic half-region row: j runs over [-n/2, n/2], not [-n, n],
        # and row n is lowest at j = n/2.
        ("hecke(n, j, half, q^(binom(n + 1, 2) - j^2 - 3*j) / poch(q; q, n))", 20),
        # A generic full-region row, lowest at j = -n.
        ("hecke(n, j, full, q^(2*n*n - j^2 + 3*j) / poch(q; q, n))", 20),
        # A generic Appell row; along n = -t the exponent is t^2 - 3t.
        ("appell(n, q^(n*n + 3*n) * poch(-q; q, 2), n)", 30),
        # A bare z is z^1, a z-power that does not move with the index.
        ("appell(n, z * q^(n*n + n), n)", 8),
        ("hecke(n, j, full, z * q^(2*n*n + n - j*j))", 8),
        # The numerator's exact bound reaches the order past the cap 28, at
        # n = 40, but 1/(1 + q^(-n)) raises each term by n: the sum is 0.
        ("appell(n, q^((n - 40)^2) * poch(-q; q, 1), -n)", 6),
        # The same row with a monomial numerator: every term lies above the
        # order once the constant 1600 of (n - 40)^2 is counted.
        ("appell(n, q^((n - 40)^2), -n)", 6),
        # A generic row whose numerator starts at q^-5, below q^0.
        ("appell(n, q^(n*n + n - 4) * poch(-q^(-1); q, 2), n)", 10),
    ])
    def test_bounded_sums_match_the_oracle(self, src, order):
        expr = parse_expr(src)
        assert as_dict(evaluate_expr(expr, order=order)) == expand_expr(expr, scale=1, order=order)

    def test_power_moving_with_the_index_needs_an_exact_base(self):
        # The base is q^3, but its lower bound 2 is not exact and must not be
        # raised to -n: the term has no proven floor, and the sum is refused.
        expr = parse_expr("sum(n >= 0, q^(3*n*n) * (q^(2) + q^(3) - q^(2))^(-n))")
        with pytest.raises(TerminationError, match="no certified last index"):
            evaluate_expr(expr, order=20)

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(1, 3), v=st.integers(0, 40), m=st.integers(-4, 12),
           e=st.integers(-3, 3), f=st.integers(1, 3), g=st.integers(1, 2))
    def test_sum_equals_its_terms_up_to_the_cap(self, a, v, m, e, f, g):
        body = f"q^({a}*(n - {v})^2 + {m}) * poch(q^({e}); q, n) / poch(q^({f}); q, {g}*n)"
        order = 12
        got = evaluate_expr(parse_expr(f"sum(n >= 0, {body})"), order=order)
        term = parse_expr(body)
        want = evaluate_expr(parse_expr("0"), order=order)
        for n in range(hard_cap(EvalContext(1, order)) + 1):
            want = want + evaluate_expr(term, order=order, env={"n": n})
        assert as_dict(got) == as_dict(want)

    def test_catalog_sums_are_certified(self, monkeypatch):
        # Every catalog sum visits the indices of a proven floor, at order 6
        # and at the shipped one, range sums
        # included, and no side inverts a series: each 1 + q^e divisor is a
        # length-one Pochhammer factor. Every DSL entry has a sum.
        indices = baileyforge.dsl.evaluator._Ray.indices
        proven = {}

        def recorded(ray, st, a, b=None):
            out = indices(ray, st, a, b)
            if b is None or b >= a:
                proven.setdefault(current[0], []).append(ray.memo[0][0] is not None)
            return out

        def no_invert(self):
            raise AssertionError(f"{current} inverts a series")

        monkeypatch.setattr(baileyforge.dsl.evaluator._Ray, "indices", recorded)
        monkeypatch.setattr(baileyforge.series.QSeries, "invert", no_invert)
        names = []
        for entry in R.REGISTRY.values():
            if entry.route != "dsl":
                continue
            names.append(entry.name)
            spec = R.load_spec(entry)
            for side in ("lhs", "rhs"):
                for order in (6, None):
                    current = (entry.name, side, order)
                    evaluate(spec, dict(entry.default_params), side, order=order)
        assert sorted(proven) == sorted(names)
        assert all(all(flags) for flags in proven.values())

    @pytest.mark.xfail(strict=True, reason="the oracle keeps the empty-run rule (ROADMAP item 1)")
    def test_oracle_sees_the_late_terms(self, tmp_path):
        report = self.verify_source(tmp_path, self.LATE, use_oracle=True)
        assert report.status == "pass", report.detail


# Generated bodies for the bound tests. n is the ray index and k an inner
# index wherever a shape binds them, a and b are parameters (b sometimes
# unbound), and j is a range index or, outside a range sum, an unbound name.
_INAMES = ("n", "k", "a", "b", "j")
_IEXPRS = st.recursive(
    st.one_of(st.integers(-3, 4).map(str), st.sampled_from(_INAMES)),
    lambda c: st.one_of(
        st.builds(lambda x, y, op: f"({x}) {op} ({y})", c, c, st.sampled_from("+-*")),
        st.builds(lambda x: f"({x})^2", c),
        st.builds(lambda x: f"binom({x}, 2)", c),
        st.builds(lambda x: f"-({x})", c),
    ),
    max_leaves=3,
)
_BOUND_BASES = st.builds(
    lambda form, e: form.format(e=e),
    st.sampled_from(["q^({e})", "-q^({e})", "2*q^({e})", "z*q^({e})", "q^({e})/z",
                     "z^({e})", "(2*q^({e}))^(a)", "q^({e}) * q^(n)", "q", "z", "0"]),
    _IEXPRS,
)
_BOUND_LENGTHS = st.one_of(st.none(), _IEXPRS, st.sampled_from(["n", "1", "a", "n - k"]))
_BOUND_PRODUCTS = st.builds(
    lambda bases, step, length, theta: (
        f"theta({', '.join(bases)}; q^({step}))" if theta or length is None
        else f"poch({', '.join(bases)}; q^({step}), {length})"),
    st.lists(_BOUND_BASES, min_size=1, max_size=2),
    st.one_of(st.sampled_from(["1", "2", "a", "a + 1"]), _IEXPRS),
    _BOUND_LENGTHS, st.booleans(),
)
_BOUND_LEAVES = st.one_of(
    _IEXPRS.map(lambda e: f"q^({e})"),
    _IEXPRS.map(lambda e: f"z^({e})"),
    st.sampled_from(["q", "z", "2", "0", "-1/2"]),
    _IEXPRS.map(lambda e: f"num({e})"),
    st.builds(lambda x, y: f"qbinom({x}, {y})", _IEXPRS, _IEXPRS),
    _BOUND_PRODUCTS,
    # Two-monomial factors.
    st.builds(lambda c, x, op, y: f"({c}*q^({x}) {op} q^({y}))",
              st.sampled_from(["1", "2", "-1"]), _IEXPRS, st.sampled_from("+-"), _IEXPRS),
    _IEXPRS.map(lambda e: f"(1 - q^({e}))"),
)
_BOUND_BODIES = st.recursive(
    _BOUND_LEAVES,
    lambda c: st.one_of(
        st.builds(lambda x, y: f"({x}) * ({y})", c, c),
        st.builds(lambda x, y: f"({x}) / ({y})", c, c),
        st.builds(lambda x, y, op: f"({x}) {op} ({y})", c, c, st.sampled_from("+-")),
        st.builds(lambda x: f"-({x})", c),
        # A power that may move with the ray index.
        st.builds(lambda x, e: f"({x})^({e})", c, _IEXPRS),
        st.builds(lambda lo, hi, x: f"sum(j in {lo}..{hi}, {x})",
                  st.sampled_from(["0", "1", "-n", "-a", "-2", "a", "n - 3", "-n - k", "n", "n + k"]),
                  st.sampled_from(["n", "a", "3", "-1", "n + a", "k"]), c),
    ),
    max_leaves=4,
)
_HALF = mmul(RAY_T, mconst(F(1, 2)))
_SHAPES = [
    # (subs, inner, bound) as the evaluator lowers them: one ray, both rays
    # of a two-sided sum, a chain with an inner index, a Hecke row.
    (({"n": RAY_T},), (), None),
    (({"n": mneg(RAY_T)},), (), None),
    (({"n": RAY_T, "k": mvar("k")},), ("k",), RAY_T),
    (({"n": RAY_T, "k": mvar("k")}, {"n": RAY_T, "k": mneg(mvar("k"))}), ("k",), _HALF),
]
_BOUND_ENVS = st.fixed_dictionaries(
    {"a": st.integers(-2, 3)}, optional={"b": st.integers(-1, 2), "n": st.integers(0, 3)})
_ZFOLDS = st.one_of(st.none(), st.tuples(st.sampled_from([1, -1]), st.integers(-2, 2)))


class TestLoweredBounds:
    """Each sum's bound is lowered once with its plan and matches the walked reference."""

    @pytest.mark.parametrize("src,last", [
        # by hand: every row j in -n..n starts at q^(n^2), which is <= 20 up to n = 4.
        ("sum(n >= 0, q^(n^2) * sum(j in -n..n, q^(j^2)))", 4),
        # The generic side of test_hecke_recognized_equals_generic: along j = -j'
        # the exponent n^2 - binom(-j', 2) is at least n^2/2 - n/2, <= 20 up to n = 6.
        ("sum(n >= 0, sum(j in -n..n, (-1)^(j) * z^(j) * q^(n*n - binom(j,2))))", 6),
    ])
    def test_negative_range_end_is_certified(self, monkeypatch, src, last):
        # The last index the outer ray visits; the inner rays have an end.
        indices = baileyforge.dsl.evaluator._Ray.indices
        lasts = []

        def spy(ray, st, a, b=None):
            out = indices(ray, st, a, b)
            if b is None:
                lasts.append(max((max(r[0], r[-1]) for r in out), default=a - 1))
            return out

        monkeypatch.setattr(baileyforge.dsl.evaluator._Ray, "indices", spy)
        expr = parse_expr(src)
        assert as_dict(evaluate_expr(expr, order=20)) == expand_expr(expr, scale=1, order=20)
        assert lasts == [last]

    @pytest.mark.parametrize("src,want", [
        # by hand: j^2 + j >= 0 for j >= 0, and along j = -j' it is j'^2 - j' >= -n.
        ("sum(j in -n..n, q^(j^2 + j))", {(("n", 1),): -1}),
        # n*j >= 0 for j >= 0, and -n*j' >= -3n for j' <= 3.
        ("sum(j in -3..n, q^(n*j))", {(("n", 1),): -3}),
        # n - j over 0..n is at least 0, and n + j' is n.
        ("sum(j in -2..n, q^(n - j))", {}),
        # by hand: a lower end that rises with n is not split; j = n + j'
        # puts in j' >= 0, so the bound is n.
        ("sum(j in n..2*n, q^(j))", {(("n", 1),): 1}),
        # A range that may end below a rising lower end (3 - n), or an upper
        # end below 0, has no bound.
        ("sum(j in n..3, q^(j))", None),
        ("sum(j in -n..-1, q^(j^2))", None),
    ])
    def test_range_sum_bounds(self, src, want):
        assert lower_bounds(parse_expr(src), {"n": mvar("n")}, 1)({}, None) == (want, None)

    def test_rising_lower_end_is_certified(self):
        # by hand: row n is q^n + ... + q^(2n), so q^k lies in the rows
        # k/2 <= n <= k; every term of row n is at least q^n.
        expr = parse_expr("sum(n >= 0, sum(j in n..2*n, q^(j)))")
        assert as_dict(evaluate_expr(expr, order=6)) == {(k, 0): k // 2 + 1 for k in range(7)}

    def test_one_lowering_serves_every_zfold(self):
        # by hand: z = q^(-3) puts its first factor at 1 - q^(-1), lowest
        # exponent -1, and its second at 1 - q^0; z = -q folds it to
        # 1 + q^3, lowest exponent 0.
        floor = lower_floor(parse_expr("poch(z*q^(2); q, n) * q^(n)"), ({"n": RAY_T},), 1)
        assert floor({}, (1, -3)) == [-1, 1]
        assert floor({}, (-1, 1)) == [0, 1]
        assert floor({}, (1, -3)) == [-1, 1]

    @pytest.mark.parametrize("src,want", [
        ("sum(j in 0..1000000000000, q^(j))", {(k, 0): 1 for k in range(6)}),
        # Both halves of the window, each 10^12 wide: j^2 <= 5 at j = 0, +-1, +-2.
        ("sum(j in -1000000000000..1000000000000, q^(j^2))", {(0, 0): 1, (1, 0): 2, (4, 0): 2}),
    ])
    def test_wide_range_is_not_scanned(self, monkeypatch, src, want):
        calls = []
        value = baileyforge.dsl.growth.ray_value

        def counted(p, t):
            calls.append(t)
            return value(p, t)

        monkeypatch.setattr(baileyforge.dsl.growth, "ray_value", counted)
        assert as_dict(evaluate_expr(parse_expr(src), order=5)) == want
        assert len(calls) < 300

    @settings(max_examples=300, deadline=None)
    @given(p=st.lists(st.integers(-30, 30), min_size=1, max_size=4),
           a=st.integers(-5, 40), width=st.integers(-1, 60), order=st.integers(-3, 12))
    def test_range_values_match_a_scan(self, p, a, width, order):
        # The values at which p <= order, from a up, or from b down when p(b) < p(a).
        b = a + width
        values = range(a, b + 1)
        if ray_value(p, b) < ray_value(p, a):
            values = reversed(values)
        want = [v for v in values if ray_value(p, v) <= order]
        got = [v for r in range_values([F(c) for c in p], a, b, order) for v in r]
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(body=_BOUND_BODIES, shape=st.sampled_from(_SHAPES),
           envs=st.lists(_BOUND_ENVS, min_size=1, max_size=3),
           zfolds=st.lists(_ZFOLDS, min_size=2, max_size=3, unique=True))
    def test_lowered_bounds_match_the_reference(self, body, shape, envs, zfolds):
        # One lowering serves every binding and z fold.
        expr = parse_expr(body)
        subs, inner, bound = shape
        floor = lower_floor(expr, subs, 1, inner, bound)
        bounds = [lower_bounds(expr, sub, 1) for sub in subs]
        for env in envs:
            for zfold in zfolds:
                want = oracles.ref_ray_floor(expr, subs, env, 1, zfold, inner, bound)
                assert floor(env, zfold) == want, body
                ref = [oracles.ref_term_bounds(expr, sub, env, 1, zfold) for sub in subs]
                assert [f(env, zfold) for f in bounds] == ref, body

    def test_catalog_floors_match_the_reference(self, monkeypatch):
        # Every floor the evaluator asks for on a catalog side, at the default
        # bindings and at the lowest and highest ones, with the indices of
        # enclosing sums bound as the sums run.
        lower = baileyforge.dsl.growth.lower_floor
        checked = []

        def checking(body, subs, scale, inner=(), bound=None):
            floor = lower(body, subs, scale, inner, bound)

            def run(env, zfold):
                got = floor(env, zfold)
                want = oracles.ref_ray_floor(body, subs, env, scale, zfold, inner, bound)
                assert got == want, (current, body)
                checked.append(want is not None)
                return got

            return run

        monkeypatch.setattr(baileyforge.dsl.growth, "lower_floor", checking)
        monkeypatch.setattr(R, "_SPEC_CACHE", {})
        for entry in R.REGISTRY.values():
            if entry.route != "dsl":
                continue
            spec = R.load_spec(entry)
            lo, hi = {}, {}
            for p in spec.params:
                lo[p.name] = p.lo
                hi[p.name] = p.hi if isinstance(p.hi, int) else hi[p.hi]
            for env in [dict(entry.default_params)] + ([lo] if lo == hi else [lo, hi]):
                try:
                    bindings_env(spec, env)
                except SpecError:
                    continue
                for side in ("lhs", "rhs"):
                    current = (entry.name, env, side)
                    evaluate(spec, env, side, order=6)
        assert sum(checked) > 100

    def test_bound_is_lowered_once_per_plan(self, monkeypatch):
        # rr_mod3m_minus has one sum: its bound is lowered with the plan, and
        # a sweep of 35 points lowers no more than one of 2 points.
        lower = baileyforge.dsl.growth.lower_bounds
        counts = []

        def counted(*args):
            counts[-1] += 1
            return lower(*args)

        monkeypatch.setattr(baileyforge.dsl.growth, "lower_bounds", counted)
        floors = []
        lower_floor_ = baileyforge.dsl.growth.lower_floor
        monkeypatch.setattr(baileyforge.dsl.growth, "lower_floor",
                            lambda *args: floors.append(args[0]) or lower_floor_(*args))
        for grid, points in (("m=1..1,a=0..m", 2), ("m=1..7,a=0..m", 35)):
            monkeypatch.setattr(R, "_SPEC_CACHE", {})
            counts.append(0)
            floors.clear()
            reports = R.sweep_entry("rr_mod3m_minus", grid)
            assert [r.status for r in reports] == ["pass"] * points
            assert len(floors) == 1
        assert counts[0] == counts[1]


# -- generated specs ---------------------------------------------------------
#
# Expressions are drawn as builders: a builder maps the summation indices in
# scope to DSL text. A sum names its index after its depth: n... for a
# one-sided sum, i... for a range and b... for an Appell or Hecke sum, whose
# indices stand in scope as None since nothing inside reads them. Below a
# one-sided sum, a one-sided sum becomes a range and an Appell or Hecke sum
# its body, since the oracle sums every nested unbounded sum to its
# empty-run limit again for each outer term. Every
# sum keeps to terms whose lowest exponent grows from index 0: a one-sided
# sum carries q^(a*n^2 + b*n) with a >= 1 and b >= 0, and inside it an index
# (always >= 0) enters only through exponents k*i + c with k >= 0 and through
# product lengths. Appell and Hecke bodies are products of leaves, and their
# linear parts stay within the quadratic one on every ray. So the oracle's
# empty-run rule stops where the terms have really left the window, and the
# test compares summation limits, product lowering and the sum loops, not
# that rule.


def _pick(scope, pick):
    names = [i for i in scope if i is not None]
    return names[pick % len(names)] if names else None


def _exp(k, c, pick):
    def text(s):
        i = _pick(s, pick)
        return f"{k}*{i} + {c}" if i and k else f"{c}"
    return text


def _length(form, c, pick):
    forms = ("{c}", "{i}", "{i} + {c}", "2*{i}")
    return lambda s: forms[form if _pick(s, pick) else 0].format(c=c, i=_pick(s, pick))


_ints = st.integers
_picks = _ints(0, 3)
_NUM_BASES = ("q^({c})", "-q^({c})", "2*q^({c})", "z*q^({c})", "q^({c})/z", "q^(-1)")
_DEN_BASES = ("q^({c})", "-q^({c})", "2*q^({c})")


def _bases(choices):
    one = st.builds(lambda form, c: choices[form].format(c=c),
                    _ints(0, len(choices) - 1), _ints(1, 3))
    return st.lists(one, min_size=1, max_size=2).map(", ".join)


def _poch(bases, step, length, over):
    head = "1 / " if over else ""
    if length is None:
        return lambda s: f"{head}theta({bases}; q^({step}))"
    return lambda s: f"{head}poch({bases}; q^({step}), {length(s)})"


def _sign(k, pick):
    return lambda s: f"(-1)^({_pick(s, pick) or k})"


_lengths = st.one_of(st.none(), st.builds(_length, _ints(0, 3), _ints(0, 2), _picks))
_LEAVES = st.one_of(
    st.builds(lambda e: lambda s: f"q^({e(s)})", st.builds(_exp, _ints(0, 2), _ints(-2, 3), _picks)),
    st.builds(lambda k: lambda s: f"z^({k})", st.sampled_from([-1, 1])),
    st.builds(_sign, _ints(0, 1), _picks),
    st.builds(_poch, _bases(_NUM_BASES), _ints(1, 2), _lengths, st.just(False)),
    st.builds(_poch, _bases(_DEN_BASES), _ints(1, 2), _lengths, st.just(True)),
    st.builds(lambda e: lambda s: f"num({e(s)})", st.builds(_exp, _ints(0, 2), _ints(0, 3), _picks)),
    st.builds(lambda e, k: lambda s: f"qbinom({e(s)}, {k})",
              st.builds(_exp, _ints(0, 1), _ints(0, 3), _picks), _ints(0, 2)),
    st.builds(lambda sign, c, over: lambda s: f"{'1 / ' if over else ''}(1 {sign} q^({c}))",
              st.sampled_from("+-"), _ints(1, 3), st.booleans()),
)
_ROW_BODIES = st.lists(_LEAVES, min_size=1, max_size=2).map(
    lambda fs: lambda s: " * ".join(f"({f(s)})" for f in fs))


def _unbounded(scope):
    return any(i and i[0] == "n" for i in scope)


def _range_sum(body, hi, pick):
    def text(s):
        i = f"i{len(s)}"
        top = _pick(s, pick) if pick < 2 else None
        return f"sum({i} in 0..{top or hi}, {body(s + [i])})"
    return text


def _one_sided(body, a, b):
    def text(s):
        if _unbounded(s):
            return _range_sum(body, a + b, 2)(s)
        n = f"n{len(s)}"
        return f"sum({n} >= 0, q^({a}*{n}^2 + {b}*{n}) * ({body(s + [n])}))"
    return text


def _appell(body, a, b, zp, alt, den):
    def text(s):
        if _unbounded(s):
            return body(s)
        n = f"b{len(s)}"
        return (f"appell({n}, (-1)^({alt}*{n}) * z^({zp}*{n}) * q^({a}*{n}^2 + {b}*{n})"
                f" * {body(s + [None])}, {den[0]}*{n} + {den[1]})")
    return text


def _hecke(body, region, a, b, c, d, zp, den):
    def text(s):
        if _unbounded(s):
            return body(s)
        n, j = f"b{len(s)}", f"b{len(s) + 1}"
        tail = "" if den is None else f", {den[0]}*{j} + {den[1]}"
        return (f"hecke({n}, {j}, {region}, (-1)^({j}) * z^({zp}*{j})"
                f" * q^({a}*{n}^2 + {b}*{n} + {c}*{j}^2 + {d}*{j}) * {body(s + [None, None])}{tail})")
    return text


_DENS = st.tuples(_ints(-2, 2), _ints(-2, 2))
_BILATERAL = st.one_of(
    _ints(1, 2).flatmap(lambda a: st.builds(
        _appell, _ROW_BODIES, st.just(a), _ints(1 - a, a - 1), _ints(-1, 1), _ints(0, 1), _DENS)),
    st.tuples(_ints(1, 2), _ints(0, 1)).flatmap(lambda ab: st.builds(
        _hecke, _ROW_BODIES, st.sampled_from(["full", "half"]), st.just(ab[0]), st.just(ab[1]),
        _ints(0, 2), _ints(1 - sum(ab), sum(ab) - 1), _ints(-1, 1), st.one_of(st.none(), _DENS))),
)


def _extend(children):
    return st.one_of(
        st.builds(lambda x, y: lambda s: f"({x(s)}) * ({y(s)})", children, children),
        st.builds(lambda x, y, op: lambda s: f"({x(s)}) {op} ({y(s)})",
                  children, children, st.sampled_from("+-")),
        st.builds(_range_sum, children, _ints(0, 3), _picks),
        st.builds(_one_sided, children, _ints(1, 2), _ints(0, 2)),
    )


_EXPRESSIONS = st.recursive(st.one_of(_LEAVES, _BILATERAL), _extend, max_leaves=6).map(
    lambda build: build([]))


class TestGeneratedSpecs:
    @settings(max_examples=100, deadline=None)
    @given(text=_EXPRESSIONS)
    def test_print_parse_round_trip(self, text):
        expr = parse_expr(text)
        printed = pretty_print_expr(expr)
        assert parse_expr(printed) == expr
        assert pretty_print_expr(parse_expr(printed)) == printed

    @settings(max_examples=100, deadline=None)
    @given(text=_EXPRESSIONS, order=st.sampled_from([6, 9, 12]),
           zfold=st.one_of(st.none(), st.tuples(st.sampled_from([1, -1]), _ints(-1, 1))))
    def test_evaluator_equals_the_oracle(self, text, order, zfold):
        expr = parse_expr(text)
        zi = None if zfold is None else Monomial(*zfold)
        try:
            got = evaluate_expr(expr, order=order, z_interp=zi)
        except ZDegreeError:
            reject()    # the z-degree guard is a resource limit the oracle does not keep
        assert as_dict(got) == expand_expr(expr, scale=1, order=order, zfold=zfold), text

    @settings(max_examples=100, deadline=None)
    @given(text=_EXPRESSIONS)
    def test_nodes_compare_by_their_fields(self, text):
        # A leading space moves every span and changes nothing else.
        expr, moved = parse_expr(text), parse_expr(" " + text)
        assert expr.span != moved.span
        assert expr == moved and hash(expr) == hash(moved) and repr(expr) == repr(moved)
        back = pickle.loads(pickle.dumps(expr))
        assert back == expr and back.span == expr.span and repr(back) == repr(expr)


def _node_samples():
    """One instance of every node class, with a span wherever the class has one."""
    sp = N.Span(0, 1)
    n, two, one = N.IVar(name="n", span=sp), N.IntLit(value=2, span=sp), N.IntLit(value=1)
    q, z = N.QPow(exp=None, span=sp), N.ZPow(exp=n)
    param = N.ParamDecl(name="m", lo=1, hi="k", span=sp)
    zbind = N.ZBind(sign=-1, qexp=one, span=sp)
    return [
        sp, N.IntExpr(span=sp), n, two,
        N.IAdd(left=n, right=two), N.ISub(left=n, right=two), N.IMul(left=two, right=n),
        N.INeg(arg=n), N.IPow(base=n, power=3), N.IBinom(arg=n),
        N.Expr(span=sp), N.Rational(value=F(1, 2)), q, z, N.Pow(base=q, exp=n),
        N.Neg(arg=q), N.Add(left=q, right=z), N.Sub(left=q, right=z), N.Mul(left=q, right=z),
        N.Div(left=q, right=z), N.NumPoly(poly=n), N.Poch(bases=(q, z), step=one, length=n),
        N.Theta(bases=(z,), step=one), N.QBinom(top=n, bottom=one),
        N.ChainSum(indices=("n", "m"), body=q), N.BilateralSum(index="n", body=q),
        N.RangeSum(index="j", lo=N.INeg(arg=n), hi=n, body=q),
        N.Appell(index="n", num=q, den=n),
        N.Hecke(outer="n", inner="j", region="half", body=q, den=None),
        param, zbind,
        N.IdentitySpec(name="x", params=(param,), scale=2, order=10, zbind=zbind, lhs=q, rhs=z,
                       span=sp),
    ]


# The text each node class showed as a frozen dataclass.
_NODE_REPRS = {
    "Span": "Span(start=0, end=1)",
    "IntExpr": "IntExpr()",
    "IVar": "IVar(name='n')",
    "IntLit": "IntLit(value=2)",
    "IAdd": "IAdd(left=IVar(name='n'), right=IntLit(value=2))",
    "ISub": "ISub(left=IVar(name='n'), right=IntLit(value=2))",
    "IMul": "IMul(left=IntLit(value=2), right=IVar(name='n'))",
    "INeg": "INeg(arg=IVar(name='n'))",
    "IPow": "IPow(base=IVar(name='n'), power=3)",
    "IBinom": "IBinom(arg=IVar(name='n'))",
    "Expr": "Expr()",
    "Rational": "Rational(value=Fraction(1, 2))",
    "QPow": "QPow(exp=None)",
    "ZPow": "ZPow(exp=IVar(name='n'))",
    "Pow": "Pow(base=QPow(exp=None), exp=IVar(name='n'))",
    "Neg": "Neg(arg=QPow(exp=None))",
    "Add": "Add(left=QPow(exp=None), right=ZPow(exp=IVar(name='n')))",
    "Sub": "Sub(left=QPow(exp=None), right=ZPow(exp=IVar(name='n')))",
    "Mul": "Mul(left=QPow(exp=None), right=ZPow(exp=IVar(name='n')))",
    "Div": "Div(left=QPow(exp=None), right=ZPow(exp=IVar(name='n')))",
    "NumPoly": "NumPoly(poly=IVar(name='n'))",
    "Poch": "Poch(bases=(QPow(exp=None), ZPow(exp=IVar(name='n'))), step=IntLit(value=1), "
            "length=IVar(name='n'))",
    "Theta": "Theta(bases=(ZPow(exp=IVar(name='n')),), step=IntLit(value=1))",
    "QBinom": "QBinom(top=IVar(name='n'), bottom=IntLit(value=1))",
    "ChainSum": "ChainSum(indices=('n', 'm'), body=QPow(exp=None))",
    "BilateralSum": "BilateralSum(index='n', body=QPow(exp=None))",
    "RangeSum": "RangeSum(index='j', lo=INeg(arg=IVar(name='n')), hi=IVar(name='n'), "
                "body=QPow(exp=None))",
    "Appell": "Appell(index='n', num=QPow(exp=None), den=IVar(name='n'))",
    "Hecke": "Hecke(outer='n', inner='j', region='half', body=QPow(exp=None), den=None)",
    "ParamDecl": "ParamDecl(name='m', lo=1, hi='k')",
    "ZBind": "ZBind(sign=-1, qexp=IntLit(value=1))",
    "IdentitySpec": "IdentitySpec(name='x', params=(ParamDecl(name='m', lo=1, hi='k'),), scale=2, "
                    "order=10, zbind=ZBind(sign=-1, qexp=IntLit(value=1)), lhs=QPow(exp=None), "
                    "rhs=ZPow(exp=IVar(name='n')))",
}


def _node_fields(node) -> dict:
    """The node's fields by name, in the order the constructor takes them."""
    return {k: v for k, v in vars(node).items() if k != "plans"}


class TestNodeSemantics:
    """Every node class is immutable and compared, hashed and shown by its fields but span."""

    def test_every_node_class_is_sampled(self):
        classes = {c for c in vars(N).values()
                   if isinstance(c, type) and issubclass(c, N.Node) and c is not N.Node}
        assert {type(x) for x in _node_samples()} == classes
        assert len(classes) == 32 and set(_NODE_REPRS) == {c.__name__ for c in classes}

    @pytest.mark.parametrize("node", _node_samples(), ids=lambda x: type(x).__name__)
    def test_equality_hash_and_repr(self, node):
        fields = _node_fields(node)
        compared = tuple(v for k, v in fields.items() if k != "span")
        assert repr(node) == _NODE_REPRS[type(node).__name__]
        assert hash(node) == hash(compared)
        twin = type(node)(**fields)
        assert twin == node and hash(twin) == hash(node) and not twin != node
        if "span" in fields:
            moved = type(node)(**{**fields, "span": N.Span(5, 9)})
            assert moved == node and hash(moved) == hash(node) and repr(moved) == repr(node)
        # Equal fields in another class are not equal.
        for other in _node_samples():
            if type(other) is not type(node):
                assert other != node and node != other
        assert node != compared and node != None  # noqa: E711
        if compared:
            name = [k for k in fields if k != "span"][-1]
            changed = type(node)(**{**fields, name: "other"})
            assert changed != node

    @pytest.mark.parametrize("node", _node_samples(), ids=lambda x: type(x).__name__)
    def test_construction_and_immutability(self, node):
        cls, fields = type(node), _node_fields(node)
        assert cls(*fields.values()) == node        # positional, in field order
        with pytest.raises(TypeError):
            cls(**fields, unknown=1)
        with pytest.raises(TypeError):
            cls(*fields.values(), 1)
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(fields[first], **{first: fields[first]})
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(node, name, 1)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert _node_fields(node) == fields
        back = pickle.loads(pickle.dumps(node))
        assert type(back) is cls and back == node and _node_fields(back) == fields

    def test_span_comes_first_and_required_fields_are_required(self):
        sp = N.Span(2, 3)
        assert N.IntLit(sp, 5) == N.IntLit(value=5) and N.IntLit(sp, 5).span == sp
        assert N.IntLit().value == 0 and N.Hecke().region == "full"
        assert N.ParamDecl("m", 1, 3, sp).span == sp
        for cls, given in ((N.Span, {"start": 0}), (N.ParamDecl, {"name": "m", "lo": 0}),
                           (N.ZBind, {"sign": 1}), (N.IdentitySpec, {"name": "x"})):
            with pytest.raises(TypeError):
                cls(**given)

    def test_plans_are_fresh_per_spec_and_not_compared(self):
        text = "identity a { scale 1 order 5 lhs q rhs q }"
        (a,), (b,) = parse_file(text), parse_file(text)
        assert a.plans == {} and a.plans is a.plans and a.plans is not b.plans
        evaluate(a, {}, "lhs")
        assert set(a.plans) == {"lhs"} and b.plans == {}
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        back = pickle.loads(pickle.dumps(b))
        assert back == b and back.plans == {} and back.plans is not b.plans
        with pytest.raises(TypeError):
            IdentitySpec(a.name, a.params, a.scale, a.order, a.zbind, a.lhs, a.rhs, plans={})

    def test_catalog_reprs_are_unchanged(self):
        specs = [R.load_spec(e) for e in R.REGISTRY.values() if e.route == "dsl"]
        assert repr(R.load_spec(R.REGISTRY["qbinom_theorem"])) == (
            "IdentitySpec(name='qbinom_theorem', params=(ParamDecl(name='nn', lo=0, hi=12),), "
            "scale=1, order=145, zbind=None, lhs=Poch(bases=(ZPow(exp=None),), "
            "step=IntLit(value=1), length=IVar(name='nn')), rhs=RangeSum(index='j', "
            "lo=IntLit(value=0), hi=IVar(name='nn'), body=Mul(left=Mul(left=Mul("
            "left=QBinom(top=IVar(name='nn'), bottom=IVar(name='j')), right=Pow(base=Neg("
            "arg=Rational(value=Fraction(1, 1))), exp=IVar(name='j'))), right=QPow("
            "exp=IBinom(arg=IVar(name='j')))), right=ZPow(exp=IVar(name='j')))))")
        # Every DSL catalog spec, as the frozen dataclasses showed it.
        digest = hashlib.sha256("\n".join(map(repr, specs)).encode()).hexdigest()
        assert len(specs) == 70
        assert digest == "d0b3a77a70cbcfda00edafc3b99fdf61f0942584cd84c27218db9451cca507fd"
