"""Identity language tests: parsing, validation, evaluation, oracle agreement."""

import glob
import os
from fractions import Fraction as F

import pytest

import baileyforge.oracle
import oracles
from baileyforge import registry as R
from baileyforge.dsl import (
    BilateralSum,
    IdentitySpec,
    Theta,
    evaluate,
    parse,
    parse_expr,
    parse_file,
    pretty_print,
    pretty_print_expr,
    validate,
)
from baileyforge.errors import DslSyntaxError, SpecError, TerminationError
from baileyforge.oracle import brute_force_expand, expand_expr


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
