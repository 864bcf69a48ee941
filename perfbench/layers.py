"""What the traced run wraps in ``baileyforge`` and which per-layer metrics it reports."""

from __future__ import annotations

import statistics

from tracer import Probe

PACKAGE = "baileyforge"

_ENGINE = ("engine.check", "phase.engine")


def _evaluate_keys(args, kwargs):
    # evaluate(spec, bindings=None, side="lhs", ...): the side names the phase.
    side = args[2] if len(args) > 2 else kwargs.get("side", "lhs")
    return ("dsl.evaluator.evaluate", "phase." + side)


def _engine(name: str) -> Probe:
    return Probe(f"{PACKAGE}.engine", name, (f"engine.{name}",) + _ENGINE)


PROBES = (
    Probe(f"{PACKAGE}.series", "QSeries.__mul__", ("series.mul",)),
    Probe(f"{PACKAGE}.series", "QSeries.invert", ("series.invert",)),
    Probe(f"{PACKAGE}.series", "poch_finite", ("series.poch_finite",)),
    Probe(f"{PACKAGE}.series", "poch_infinite", ("series.poch_infinite",)),
    Probe(f"{PACKAGE}.series", "qbinomial", ("series.qbinomial",)),
    Probe(f"{PACKAGE}.series", "first_mismatch", ("series.first_mismatch", "phase.compare")),
    _engine("key_pair"),
    _engine("closed_form_djk_pair"),
    _engine("closed_form_jouhet_pair"),
    _engine("chain_step"),
    _engine("general_chain_step"),
    _engine("lattice_djk"),
    _engine("lattice_jouhet"),
    _engine("iterated_lattice_eval"),
    _engine("bms_general_eval"),
    _engine("weak_lemma_eval"),
    _engine("aw_lemma_eval"),
    _engine("definition_limit_eval"),
    _engine("multisum_lhs"),
    Probe(f"{PACKAGE}.special", "appell_lerch_sum", ("special.appell_lerch_sum",)),
    Probe(f"{PACKAGE}.special", "hecke_sum", ("special.hecke_sum",)),
    Probe(f"{PACKAGE}.special", "geometric_inverse", ("special.geometric_inverse",)),
    Probe(f"{PACKAGE}.dsl.parser", "parse_file", ("dsl.parser.parse_file",)),
    Probe(f"{PACKAGE}.dsl.validator", "validate", ("dsl.validator.validate", "phase.validate")),
    Probe(f"{PACKAGE}.dsl.evaluator", "evaluate",
          ("dsl.evaluator.evaluate", "phase.lhs", "phase.rhs"), _evaluate_keys),
    Probe(f"{PACKAGE}.oracle", "brute_force_expand", ("oracle.brute_force_expand",)),
    Probe(f"{PACKAGE}.registry", "verify_entry", ("registry.verify_entry", "registry.verdict")),
    Probe(f"{PACKAGE}.registry", "verify_file", ("registry.verify_file", "registry.verdict")),
    Probe(f"{PACKAGE}.registry", "sweep_entry", ("registry.sweep_entry",)),
)

# Durations kept per span, for the verdict-latency percentiles.
SAMPLED = ("registry.verdict",)

# metric -> (tracer key, statistic, unit, better). The statistic is "total"
# (outermost inclusive seconds), "self" (self seconds) or "calls".
SPAN_METRICS = {
    "phase.validate_s": ("phase.validate", "total", "s", "lower"),
    "phase.lhs_s": ("phase.lhs", "total", "s", "lower"),
    "phase.rhs_s": ("phase.rhs", "total", "s", "lower"),
    "phase.engine_s": ("phase.engine", "total", "s", "lower"),
    "phase.compare_s": ("phase.compare", "total", "s", "lower"),
    "dsl.parser.parse_file_s": ("dsl.parser.parse_file", "total", "s", "lower"),
    "dsl.parser.parse_file_calls": ("dsl.parser.parse_file", "calls", "count", "lower"),
    "dsl.validator.validate_s": ("dsl.validator.validate", "total", "s", "lower"),
    "dsl.validator.validate_self_s": ("dsl.validator.validate", "self", "s", "lower"),
    "dsl.validator.validate_calls": ("dsl.validator.validate", "calls", "count", "lower"),
    "dsl.evaluator.evaluate_s": ("dsl.evaluator.evaluate", "total", "s", "lower"),
    "dsl.evaluator.evaluate_self_s": ("dsl.evaluator.evaluate", "self", "s", "lower"),
    "dsl.evaluator.evaluate_calls": ("dsl.evaluator.evaluate", "calls", "count", "lower"),
    "oracle.brute_force_expand_s": ("oracle.brute_force_expand", "total", "s", "lower"),
    "oracle.brute_force_expand_calls": ("oracle.brute_force_expand", "calls", "count", "lower"),
    "special.appell_lerch_sum_s": ("special.appell_lerch_sum", "total", "s", "lower"),
    "special.appell_lerch_sum_calls": ("special.appell_lerch_sum", "calls", "count", "lower"),
    "special.hecke_sum_s": ("special.hecke_sum", "total", "s", "lower"),
    "special.hecke_sum_calls": ("special.hecke_sum", "calls", "count", "lower"),
    "special.geometric_inverse_calls": ("special.geometric_inverse", "calls", "count", "lower"),
    "engine.check_s": ("engine.check", "total", "s", "lower"),
    "engine.check_self_s": ("engine.check", "self", "s", "lower"),
    "engine.bms_general_eval_s": ("engine.bms_general_eval", "total", "s", "lower"),
    "engine.weak_lemma_eval_s": ("engine.weak_lemma_eval", "total", "s", "lower"),
    "series.mul_s": ("series.mul", "total", "s", "lower"),
    "series.mul_calls": ("series.mul", "calls", "count", "lower"),
    "series.invert_s": ("series.invert", "total", "s", "lower"),
    "series.invert_calls": ("series.invert", "calls", "count", "lower"),
    "series.poch_finite_s": ("series.poch_finite", "total", "s", "lower"),
    "series.poch_finite_calls": ("series.poch_finite", "calls", "count", "lower"),
    "series.poch_infinite_s": ("series.poch_infinite", "total", "s", "lower"),
    "series.poch_infinite_calls": ("series.poch_infinite", "calls", "count", "lower"),
    "series.qbinomial_s": ("series.qbinomial", "total", "s", "lower"),
    "series.qbinomial_calls": ("series.qbinomial", "calls", "count", "lower"),
    "series.first_mismatch_s": ("series.first_mismatch", "total", "s", "lower"),
}

# Metrics computed from more than one span key; name -> (unit, better).
OTHER_METRICS = {
    "registry.verdict_p50_ms": ("ms", "lower"),
    "registry.verdict_p95_ms": ("ms", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.entries": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    units = {name: (unit, better) for name, (_, _, unit, better) in SPAN_METRICS.items()}
    units.update(OTHER_METRICS)
    return units


def span_metrics(tracer) -> dict:
    """Per-layer values from a finished traced pass; probes absent from the program are left out."""
    out = {}
    for name, (key, stat, _, _) in SPAN_METRICS.items():
        if key not in tracer.installed:
            continue
        table = {"total": tracer.total, "self": tracer.self_time, "calls": tracer.calls}[stat]
        out[name] = table.get(key, 0)
    verdicts = [d * 1000.0 for d in tracer.samples.get("registry.verdict", [])]
    if verdicts:
        out["registry.verdict_p50_ms"] = statistics.median(verdicts)
        out["registry.verdict_p95_ms"] = _percentile(verdicts, 95)
    return out


def _percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def cache_metrics(caches) -> dict:
    """Hit, miss and entry totals over every process-wide ``lru_cache``."""
    infos = [c.cache_info() for c in caches]
    hits = sum(i.hits for i in infos)
    misses = sum(i.misses for i in infos)
    return {
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.entries": sum(i.currsize for i in infos),
    }
