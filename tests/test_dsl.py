"""Identity language tests: parsing, validation, evaluation, oracle agreement."""

import glob
import os
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import baileyforge.dsl.evaluator
import baileyforge.oracle
import baileyforge.series
import oracles
from baileyforge import registry as R
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
from baileyforge.dsl.growth import last_index, mvar, term_bounds
from baileyforge.errors import (
    BudgetError,
    DslSyntaxError,
    NonUnitLeadingError,
    PoleError,
    SpecError,
    TerminationError,
)
from baileyforge.oracle import brute_force_expand, expand_expr
from baileyforge.series import EvalContext, hard_cap


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
        return {f.code for f in validate(parse(src))}

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
        # Each term keeps content at q^(-n), so no window is ever cleared.
        codes = self.finding_codes("""
        identity x { scale 1 order 6
          lhs sum(n >= 0, q^(2*n) * poch(q^(-2*n); q, 1))
          rhs 1
        }
        """)
        assert "sum-not-settling" in codes

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
    """The probe runs the fast evaluator at order 6, never the oracle."""

    # Specimens whose findings come from the probe, not the static checks.
    PROBED = [
        "identity x { scale 1 order 6 lhs sum(n >= 0, q^(2*n) * poch(q^(-2*n); q, 1)) rhs 1 }",
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
        # The budget is a limit of the run: the real evaluation enforces it.
        monkeypatch.setenv("BAILEY_FORGE_MAX_TERMS", "3")
        spec = parse(ROUND_TRIP_SOURCES[0])
        assert validate(spec) == []
        with pytest.raises(TerminationError, match="budget"):
            evaluate(spec, {"m": 1, "a": 0}, "lhs")

    def test_bound_outside_a_dependent_range_is_not_probed(self):
        # At m = 1 the range of a is empty, so the low bounds bind nothing.
        src = "identity x { param m in 1..3 param a in 2..m scale 1 order 10 lhs q^(a) rhs q^(a) }"
        assert validate(parse(src)) == []

    def test_findings_do_not_need_the_oracle(self, monkeypatch):
        specs = self.specimens()
        before = [validate(spec) for spec in specs]

        def refuse(*args, **kwargs):
            raise AssertionError("the validator reached the oracle")

        monkeypatch.setattr(baileyforge.oracle, "brute_force_expand", refuse)
        assert [validate(spec) for spec in specs] == before
        codes = [sorted({f.code for f in finds}) for finds in before]
        assert codes == [
            ["sum-not-settling"], ["non-unit-denominator"], ["pole"], ["bad-shape"],
            ["bilateral-no-growth"],  # invalid/divergent_bilateral
            ["chain-no-growth"],      # invalid/divergent_chain
            [],                       # broken/sq_mod3_off_by_term: fails only at q^17
        ]

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
    ])
    def test_products_match_the_oracle(self, src, order):
        expr = parse_expr(src)
        got = evaluate_expr(expr, order=order)
        assert as_dict(got) == expand_expr(expr, scale=1, order=order)
        assert all(type(c) is int for _, _, c in got.terms() if c.denominator == 1)

    def test_vanishing_divisor_is_a_pole(self):
        with pytest.raises(PoleError, match="division by a vanishing factor"):
            evaluate_expr(parse_expr("1 / poch(q^(-2); q, 5)"), order=6)

    def test_formal_z_divisor_is_not_a_unit(self):
        with pytest.raises(NonUnitLeadingError):
            evaluate_expr(parse_expr("1 / poch(z; q, 2)"), order=6)
        spec = parse("identity nu { scale 1 order 6 lhs 1 / poch(z; q, 2) rhs 1 }")
        assert [f.code for f in validate(spec)] == ["non-unit-denominator"]


class TestSummationLimits:
    """Sums stop at a certified last index where a term bound proves one."""

    # Every nonzero term sits near n = 20, after more than 8 empty terms.
    LATE = "identity late { scale 1 order 6 lhs sum(n >= 0, q^((n - 20)^2)) rhs 1 + 2*q + 2*q^(4) }"
    LATE_BILATERAL = (
        "identity late_z { scale 1 order 6 lhs sum(n in Z, q^((n - 20)^2)) rhs 1 + 2*q + 2*q^(4) }")
    # The divisor truncates to zero at the probe's order 6; its valuation is 10.
    HI = "identity hi { scale 1 order 20 lhs q^(10) / (q^(10) + q^(11)) rhs 1 / (1 + q) }"

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

    @pytest.mark.parametrize("p,start,want", [
        ((400, -40, 1), 0, 22),    # (t - 20)^2 <= 6 up to t = 22
        ((400, 40, 1), 1, 0),      # (t + 20)^2 > 6 from t = 1: no term
        ((-1000, 1), 0, None),     # t - 1000 <= 6 past the cap 28
        ((5,), 0, None),           # no growth
        ((0, 3, -1), 0, None),     # falls
        ((1610, -80, 1), 0, None),  # (t - 40)^2 + 10 > 6 past the cap, not yet past its vertex
    ])
    def test_last_index(self, p, start, want):
        assert last_index(tuple(F(c) for c in p), start, 6, 28) == want

    def test_last_index_past_the_cap_is_not_settling(self):
        spec = parse("identity far { scale 1 order 6 lhs sum(n >= 0, q^(n - 1000)) rhs 0 }")
        assert [f.code for f in validate(spec)] == ["sum-not-settling"]

    @pytest.mark.parametrize("src", [
        # by hand: the terms at n = 38..42 give 1 + 2q + 2q^4, past the cap 28.
        "sum(n >= 0, q^((n - 40)^2))",
        "sum(n in Z, q^((n + 40)^2))",
        # 1/(1 + q^n) has lowest exponent 0 along n >= 0, so the numerator's
        # exact bound is the whole term's there.
        "appell(n, q^((n - 40)^2) * poch(-q; q, 1), n)",
    ])
    def test_exact_bound_past_the_cap_is_not_settling(self, src):
        with pytest.raises(TerminationError, match="exceeded its index cap"):
            evaluate_expr(parse_expr(src), order=6)
        spec = parse(f"identity late40 {{ scale 1 order 6 lhs {src} rhs 1 + 2*q + 2*q^(4) }}")
        assert [f.code for f in validate(spec)] == ["sum-not-settling"]

    def test_loose_bound_past_the_cap_keeps_the_empty_run_rule(self):
        # by hand: q^(n - 40) / (1 - q^(-40)) = -q^n / (1 - q^40), so the sum
        # is -(1 + q + ... + q^6) at order 6 though the bound n - 40 reaches
        # the order only at n = 46, past the cap 28.
        spec = parse("identity neg { scale 1 order 6 "
                     "lhs sum(n >= 0, q^(n - 40) / poch(q^(-40); q, 1)) "
                     "rhs -1 / (poch(q; q, 1) * poch(q^(40); q, 1)) }")
        assert validate(spec) == []
        assert as_dict(evaluate(spec, {}, "lhs")) == {(k, 0): -1 for k in range(7)}

    @pytest.mark.parametrize("src,want", [
        # 1 - q^(-40) has lowest exponent exactly -40, so its inverse 40.
        ("1 / poch(q^(-40); q, 1)", {(): 40}),
        # With a moving length the product may stop before (1 + q^(-1)) or
        # even (1 + q^(-2)): its lowest exponent is only known to be <= 0.
        ("1 / poch(-q^(-2); q, n)", {}),
    ])
    def test_divisor_bound_of_a_product(self, src, want):
        lower, _ = term_bounds(parse_expr(src), {"n": mvar("n")}, {}, 1, None)
        assert lower == want

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
        # q^(n*n) <= 6 up to n = 2: three terms, where the empty-run rule takes
        # 17. A term spends one unit in the outer loop and one at its leaf.
        spec = parse("identity sq { scale 1 order 6 lhs sum(n >= 0, q^(n*n)) rhs 1 }")
        assert as_dict(evaluate(spec, {}, "lhs", max_terms=6)) == {(0, 0): 1, (1, 0): 1, (4, 0): 1}
        with pytest.raises(BudgetError):
            evaluate(spec, {}, "lhs", max_terms=5)

    def test_vanishing_divisor_stays_a_pole(self):
        spec = parse("identity x { scale 1 order 6 lhs sum(n >= 0, q^(n*n) / poch(q^(-2); q, n)) rhs 1 }")
        assert [f.code for f in validate(spec)] == ["pole"]

    @pytest.mark.parametrize("src,order", [
        # A generic half-region row: j runs over [-n/2, n/2], not [-n, n],
        # and row n is lowest at j = n/2.
        ("hecke(n, j, half, q^(binom(n + 1, 2) - j^2 - 3*j) / poch(q; q, n))", 20),
        # A generic full-region row, lowest at j = -n.
        ("hecke(n, j, full, q^(2*n*n - j^2 + 3*j) / poch(q; q, n))", 20),
        # A sum's lowest exponent is the lower of its parts', here n.
        ("sum(n >= 0, (q^(n*n) + q^(n)) / poch(q; q, n))", 20),
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
        # by hand: the base is q^3, so the terms are q^(3*n*n - 3*n) = 1, 1, q^6, q^18;
        # its lower bound 2 is not exact and must not be raised to -n.
        expr = parse_expr("sum(n >= 0, q^(3*n*n) * (q^(2) + q^(3) - q^(2))^(-n))")
        assert as_dict(evaluate_expr(expr, order=20)) == {(0, 0): 2, (6, 0): 1, (18, 0): 1}

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

    def test_catalog_sides_match_the_empty_run_rule(self, monkeypatch):
        cases = [(R.load_spec(e), dict(e.default_params))
                 for e in R.REGISTRY.values() if e.route == "dsl"]

        def sides():
            return [(as_dict(evaluate(spec, params, "lhs", order=20)),
                     as_dict(evaluate(spec, params, "rhs", order=20)))
                    for spec, params in cases]

        certified = sides()
        monkeypatch.setattr(baileyforge.dsl.evaluator, "_last", lambda *args, **kwargs: None)
        assert sides() == certified

    @pytest.mark.xfail(strict=True, reason="the oracle keeps the empty-run rule (ROADMAP item 2)")
    def test_oracle_sees_the_late_terms(self, tmp_path):
        report = self.verify_source(tmp_path, self.LATE, use_oracle=True)
        assert report.status == "pass", report.detail
