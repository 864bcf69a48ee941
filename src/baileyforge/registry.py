"""Built-in identity catalog: entry table, routing, order rules, reports."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .dsl.evaluator import bindings_env, evaluate
from .dsl.parser import parse_file
from .dsl.validator import validate
from .engine import iterated_lattice_eval, key_pair, weak_lemma_eval
from .errors import SeriesError, SpecError
from .oracle import brute_force_expand
from .series import EvalContext, Monomial, _dict_mismatch, first_mismatch

IDENTITY_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "identities")


# -- entry table -------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One named identity: where it lives and how it gets verified."""

    name: str
    route: str                      # "dsl" | "builtin-engine"
    group: str
    file: str | None                # .idn file name for dsl entries
    default_params: tuple = ()      # ((name, value), ...)
    order_rule: object | None = None   # env -> scaled order
    engine_check: object | None = None  # order -> (lhs, rhs)
    engine_scale: int = 1
    engine_order: int = 50


def _alt_theta_check(order: int):
    return weak_lemma_eval(key_pair(EvalContext(1, order)), "V3")


def _appell_double_alt_check(order: int):
    return iterated_lattice_eval(EvalContext(2, order), "djk", 2,
                                 Monomial(1, 1), Monomial(-1, 1))


def _lat_alt_theta_check(order: int):
    return iterated_lattice_eval(EvalContext(2, order), "jouhet", 2,
                                 Monomial(1, 1), Monomial(-1, 1))


# Abel-settled forms have no convergent spec in the language; they verify
# through the transform engine directly.  (check, scale, default order)
_ENGINE_ENTRIES = {
    "alt_theta_formal": (_alt_theta_check, 1, 50),
    "appell_double_alt": (_appell_double_alt_check, 2, 80),
    "lat_alt_theta": (_lat_alt_theta_check, 2, 80),
}

_ENGINE_TITLES = {
    "alt_theta_formal": "Alternating two-step product form of the key pair, doubled sum side.",
    "appell_double_alt": "Double-walk square-lattice form at the signed power point.",
    "lat_alt_theta": "Double-walk offset-lattice form at the signed power point.",
}

# Parameterized families: printed default bindings and the sweep order rule
# (at least four full product periods of the largest modulus in play).
_FAMILY_META = {
    "finite_key_form": ({"nn": 12}, lambda env: env["nn"] ** 2 + 1),
    "qbinom_theorem": ({"nn": 12}, lambda env: env["nn"] ** 2 + 1),
    "rr_mod3m_plus": ({"m": 7, "a": 1}, lambda env: 12 * env["m"]),
    "rr_mod3m_minus": ({"m": 8, "a": 3}, lambda env: 12 * env["m"]),
    "rr_mod2m_half_plus": ({"m": 8, "a": 1}, lambda env: 16 * env["m"]),
    "rr_mod2m_half_minus": ({"m": 10, "a": 4}, lambda env: 16 * env["m"]),
}

_GROUPS = {
    "finite": [
        "finite_key_form",
        "qbinom_theorem",
    ],
    "theta-core": [
        "jtp_check",
    ],
    "single-sum-forms": [
        "sq_mod3_formal",
        "halfsq_mod2_formal",
        "alt_theta_formal",
        "tri_mod2_pair_formal",
        "tri_appell_formal",
    ],
    "product-families": [
        "rr_mod3m_plus",
        "rr_mod3m_minus",
        "rr_mod2m_half_plus",
        "rr_mod2m_half_minus",
    ],
    "product-instances": [
        "rr_mod4_plus_inst",
        "rr_mod4_minus_inst",
        "twoterm_mod8_inst",
        "twoterm_mod14_plus_inst",
        "twoterm_mod14_minus_inst",
        "tri_appell_even_inst",
    ],
    "chain-multisums": [
        "ag_multisum_k1",
        "ag_multisum_k2",
        "ag_multisum_k3",
        "ag_multisum_k4",
        "ag_even_multisum_k1",
        "ag_even_multisum_k2",
        "ag_even_multisum_k3",
        "ag_even_multisum_k4",
    ],
    "chain-instances": [
        "ag_classic_k1_i1",
        "ag_classic_k2_i1",
        "ag_classic_k2_i2",
        "ag_classic_k3_i1",
        "ag_classic_k3_i2",
        "ag_classic_k3_i3",
        "ag_classic_k4_i1",
        "ag_classic_k4_i2",
        "ag_classic_k4_i3",
        "ag_classic_k4_i4",
        "ag_even_classic_k1_i1",
        "ag_even_classic_k1_i2",
        "ag_even_classic_k2_i1",
        "ag_even_classic_k2_i2",
        "ag_even_classic_k2_i3",
        "ag_even_classic_k3_i1",
        "ag_even_classic_k3_i2",
        "ag_even_classic_k3_i3",
        "ag_even_classic_k3_i4",
        "ag_diag_k2",
        "ag_diag_k3",
        "ag_diag_k4",
    ],
    "lattice-walk": [
        "lat_single_appell",
        "appell_double_sq",
        "appell_double_half",
        "appell_double_alt",
        "euler_bridge",
        "lat_mod4",
        "lat_mod3_half",
        "lat_mod3_pair",
        "lat_alt_theta",
        "lat_appell",
        "lat_mod6_inst",
    ],
    "double-sum-forms": [
        "hecke_full_formal",
        "hecke_half_formal",
        "hecke_triangular_counts",
        "hecke_half_plus_inst",
        "hecke_half_minus_inst",
        "hecke_odd_counts",
    ],
    "double-sum-lattice": [
        "hecke_full_lat1",
        "hecke_half_lat1",
        "hecke_full_lat1_z1",
        "hecke_half_lat1_z1",
        "hecke_full_lat2",
        "hecke_half_lat2",
        "hecke_full_lat2_z1",
        "hecke_half_lat2_z1",
    ],
}


def _build() -> dict:
    reg: dict[str, CatalogEntry] = {}
    for group, names in _GROUPS.items():
        for name in names:
            if name in reg:
                raise AssertionError(f"duplicate catalog name {name}")
            if name in _ENGINE_ENTRIES:
                check, scale, order = _ENGINE_ENTRIES[name]
                reg[name] = CatalogEntry(name, "builtin-engine", group, None,
                                         engine_check=check, engine_scale=scale,
                                         engine_order=order)
            else:
                defaults, rule = _FAMILY_META.get(name, ({}, None))
                reg[name] = CatalogEntry(name, "dsl", group, name + ".idn",
                                         tuple(sorted(defaults.items())), rule)
    return reg


REGISTRY = _build()

_SPEC_CACHE: dict = {}
_TITLE_CACHE: dict = {}
_FINDINGS_CACHE: dict = {}


def load_spec(entry: CatalogEntry):
    """Parse (once per process) the .idn file behind a dsl entry."""
    cached = _SPEC_CACHE.get(entry.name)
    if cached is not None:
        return cached
    path = os.path.join(IDENTITY_DIR, entry.file)
    with open(path) as fh:
        text = fh.read()
    title = ""
    for line in text.splitlines():
        if line.startswith("#"):
            title = line.lstrip("#").strip()
            break
        if line.strip():
            break
    specs = parse_file(text)
    if len(specs) != 1 or specs[0].name != entry.name:
        raise SpecError(f"catalog file {entry.file} does not define exactly {entry.name!r}")
    _SPEC_CACHE[entry.name] = specs[0]
    _TITLE_CACHE[entry.name] = title
    return specs[0]


def entry_info(entry: CatalogEntry) -> dict:
    """Manifest row for one entry: name, route, file, title, order, group, params."""
    if entry.route == "dsl":
        spec = load_spec(entry)
        title = _TITLE_CACHE[entry.name]
        order = spec.order
        params = [f"{p.name}={p.lo}..{p.hi}" for p in spec.params]
    else:
        title = _ENGINE_TITLES[entry.name]
        order = entry.engine_order
        params = []
    return {
        "name": entry.name,
        "route": entry.route,
        "file": entry.file,
        "title": title,
        "order": order,
        "group": entry.group,
        "params": params,
    }


# -- reports -----------------------------------------------------------------


@dataclass
class Report:
    """Outcome of one verification run."""

    name: str
    params: dict
    scale: int
    order: int
    status: str              # "pass" | "fail" | "error"
    mismatch: dict | None
    duration_ms: int
    path: str                # "dsl" | "builtin-engine" | "oracle"
    detail: str | None = field(default=None)

    def json_dict(self) -> dict:
        """JSON fields of the report; ``detail`` appears only when there is one."""
        out = {
            "name": self.name,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "scale": self.scale,
            "order": self.order,
            "status": self.status,
            "mismatch": self.mismatch,
            "duration_ms": self.duration_ms,
            "path": self.path,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def _ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _mismatch_dict(scale: int, qe: int, ze: int, ca, cb) -> dict:
    f = Fraction(qe, scale)
    return {
        "q_exp_num": f.numerator,
        "q_exp_den": f.denominator,
        "z_exp": ze,
        "lhs": str(ca),
        "rhs": str(cb),
    }


# -- verification ------------------------------------------------------------


def _validated(spec, entry) -> list:
    # Findings depend only on the spec, so catalog specs validate once per
    # process; user files (no entry) validate every call.
    if entry is None:
        return validate(spec)
    hit = _FINDINGS_CACHE.get(entry.name)
    if hit is None:
        hit = _FINDINGS_CACHE[entry.name] = validate(spec)
    return hit


def _verify_spec(spec, entry, params, order, use_oracle, max_terms, t0) -> Report:
    merged = dict(entry.default_params) if entry is not None else {}
    merged.update(params or {})
    path = "oracle" if use_oracle else "dsl"
    eff = order
    try:
        findings = _validated(spec, entry)
        if findings:
            detail = "; ".join(f"{f.code}: {f.message}" for f in findings)
            return Report(spec.name, merged, spec.scale, order if order is not None else spec.order,
                          "error", None, _ms(t0), path, detail)
        env = bindings_env(spec, merged)
        if eff is None and entry is not None and entry.order_rule is not None:
            eff = entry.order_rule(env)
        if eff is None:
            eff = spec.order
        if use_oracle:
            diff = _dict_mismatch(brute_force_expand(spec, "lhs", merged, order=eff),
                                  brute_force_expand(spec, "rhs", merged, order=eff))
        else:
            lhs = evaluate(spec, merged, "lhs", order=eff, max_terms=max_terms)
            rhs = evaluate(spec, merged, "rhs", order=eff, max_terms=max_terms)
            diff = first_mismatch(lhs, rhs)
    except SeriesError as e:
        # The order the run was refused at: the order rule's, once it has run.
        return Report(spec.name, merged, spec.scale, spec.order if eff is None else eff,
                      "error", None, _ms(t0), path, str(e))
    if diff is None:
        return Report(spec.name, merged, spec.scale, eff, "pass", None, _ms(t0), path)
    qe, ze, ca, cb = diff
    return Report(spec.name, merged, spec.scale, eff, "fail",
                  _mismatch_dict(spec.scale, qe, ze, ca, cb), _ms(t0), path)


def _verify_builtin(entry, params, order, use_oracle, t0) -> Report:
    eff = entry.engine_order if order is None else order
    if params:
        return Report(entry.name, dict(params), entry.engine_scale, eff, "error", None,
                      _ms(t0), "builtin-engine", "entry takes no parameters")
    if use_oracle:
        return Report(entry.name, {}, entry.engine_scale, eff, "error", None,
                      _ms(t0), "builtin-engine", "oracle route needs a spec file")
    try:
        lhs, rhs = entry.engine_check(eff)
        diff = first_mismatch(lhs, rhs)
    except SeriesError as e:
        return Report(entry.name, {}, entry.engine_scale, eff, "error", None,
                      _ms(t0), "builtin-engine", str(e))
    if diff is None:
        return Report(entry.name, {}, entry.engine_scale, eff, "pass", None,
                      _ms(t0), "builtin-engine")
    qe, ze, ca, cb = diff
    return Report(entry.name, {}, entry.engine_scale, eff, "fail",
                  _mismatch_dict(entry.engine_scale, qe, ze, ca, cb),
                  _ms(t0), "builtin-engine")


def verify_entry(name: str, params: dict | None = None, order: int | None = None,
                 use_oracle: bool = False, max_terms: int | None = None) -> Report:
    """Verify one catalog entry and return its report."""
    t0 = time.perf_counter()
    entry = REGISTRY.get(name)
    if entry is None:
        return Report(name, dict(params or {}), 0, 0, "error", None, _ms(t0),
                      "dsl", f"unknown catalog entry {name!r}")
    if entry.route == "builtin-engine":
        return _verify_builtin(entry, params, order, use_oracle, t0)
    try:
        spec = load_spec(entry)
    except (OSError, SeriesError) as e:
        return Report(name, dict(params or {}), 0, 0, "error", None, _ms(t0),
                      "dsl", str(e))
    return _verify_spec(spec, entry, params, order, use_oracle, max_terms, t0)


def verify_file(path: str, params: dict | None = None, order: int | None = None,
                use_oracle: bool = False, max_terms: int | None = None) -> list:
    """Verify every identity in a user .idn file; one report per identity."""
    t0 = time.perf_counter()
    name = os.path.basename(path)
    try:
        with open(path) as fh:
            text = fh.read()
        specs = parse_file(text)
    except (OSError, SeriesError) as e:
        return [Report(name, dict(params or {}), 0, 0, "error", None, _ms(t0),
                       "dsl", str(e))]
    if not specs:
        return [Report(name, dict(params or {}), 0, 0, "error", None, _ms(t0),
                       "dsl", "file defines no identities")]
    return [_verify_spec(spec, None, params, order, use_oracle, max_terms, time.perf_counter())
            for spec in specs]


# -- parameter sweeps --------------------------------------------------------


def parse_grid(grid: str) -> list:
    """Parse "m=1..13,a=0..m" into (name, lo, hi) axes; bounds may cite earlier axes."""
    axes = []
    seen = set()
    for part in grid.split(","):
        part = part.strip()
        name, eq, rng = part.partition("=")
        name = name.strip()
        lo_s, dots, hi_s = rng.partition("..")
        if not name or not eq or not dots:
            raise SpecError(f"grid axis {part!r} is not name=lo..hi")
        if name in seen:
            raise SpecError(f"grid axis {name!r} is given twice")
        axes.append((name, _grid_bound(lo_s.strip(), seen), _grid_bound(hi_s.strip(), seen)))
        seen.add(name)
    if not axes:
        raise SpecError("empty parameter grid")
    return axes


def _grid_bound(text: str, seen: set):
    try:
        return int(text)
    except ValueError:
        if text in seen:
            return text
        raise SpecError(f"grid bound {text!r} is neither an integer nor an earlier axis")


def expand_grid(axes: list) -> list:
    """All bindings of the grid in nested declaration order."""
    out: list = []

    def rec(i: int, env: dict):
        if i == len(axes):
            out.append(dict(env))
            return
        name, lo, hi = axes[i]
        lo_v = env[lo] if isinstance(lo, str) else lo
        hi_v = env[hi] if isinstance(hi, str) else hi
        for v in range(lo_v, hi_v + 1):
            env[name] = v
            rec(i + 1, env)
        env.pop(name, None)

    rec(0, {})
    return out


def sweep_entry(name: str, grid: str, order: int | None = None, jobs: int = 1,
                use_oracle: bool = False, max_terms: int | None = None) -> list:
    """Verify a catalog entry across a parameter grid, optionally in parallel.

    Reports come back in grid order regardless of completion order. The pool
    never outgrows the grid or the machine's CPU count. A grid that selects
    no binding raises SpecError, since it would verify nothing.
    """
    bindings = expand_grid(parse_grid(grid))
    if not bindings:
        raise SpecError(f"parameter grid {grid!r} selects no binding")
    jobs = min(jobs, len(bindings), os.cpu_count() or 1)
    if jobs <= 1:
        return [verify_entry(name, b, order, use_oracle, max_terms) for b in bindings]
    # Imported here: the process pool's machinery costs every other run set-up time.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futs = [pool.submit(verify_entry, name, b, order, use_oracle, max_terms)
                for b in bindings]
        return [f.result() for f in futs]
