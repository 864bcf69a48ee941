"""Catalog registry tests: coverage manifest, routing, reports, sweeps."""

import concurrent.futures
import glob
import hashlib
import json
import os
import subprocess
import sys

import pytest

from baileyforge import oracle
from baileyforge import registry as R
from baileyforge.cli import main
from baileyforge.dsl import parse_file, pretty_print
from baileyforge.errors import SpecError

MANIFEST = os.path.join(R.IDENTITY_DIR, "manifest.json")


def manifest_rows():
    with open(MANIFEST) as fh:
        return json.load(fh)["entries"]


# -- coverage: manifest <-> files <-> registry --------------------------------


def test_catalog_counts():
    assert len(R.REGISTRY) == 73
    routes = [e.route for e in R.REGISTRY.values()]
    assert routes.count("dsl") == 70
    assert routes.count("builtin-engine") == 3


def test_manifest_matches_registry_exactly():
    rows = manifest_rows()
    assert [r["name"] for r in rows] == sorted(R.REGISTRY)
    for row in rows:
        assert row == R.entry_info(R.REGISTRY[row["name"]])


def test_manifest_matches_shipped_files():
    on_disk = {os.path.basename(p) for p in glob.glob(os.path.join(R.IDENTITY_DIR, "*.idn"))}
    in_manifest = {r["file"] for r in manifest_rows() if r["route"] == "dsl"}
    assert on_disk == in_manifest
    assert len(in_manifest) == 70


def test_rejection_specimens_are_not_catalog_entries():
    invalid = glob.glob(os.path.join(R.IDENTITY_DIR, "invalid", "*.idn"))
    broken = glob.glob(os.path.join(R.IDENTITY_DIR, "broken", "*.idn"))
    assert len(invalid) == 2
    assert len(broken) == 1
    names = {os.path.basename(p)[:-4] for p in invalid + broken}
    assert not names & set(R.REGISTRY)


def test_every_file_defines_its_own_name():
    for entry in R.REGISTRY.values():
        if entry.route == "dsl":
            spec = R.load_spec(entry)
            assert spec.name == entry.name


def test_round_trip_full_catalog():
    for entry in R.REGISTRY.values():
        if entry.route != "dsl":
            continue
        spec = R.load_spec(entry)
        again = parse_file(pretty_print(spec))
        assert len(again) == 1 and again[0] == spec, entry.name


# -- the whole catalog verifies at its shipped defaults ----------------------


@pytest.mark.parametrize("name", sorted(R.REGISTRY))
def test_catalog_entry_verifies(name):
    report = R.verify_entry(name)
    assert report.status == "pass", (name, report.detail, report.mismatch)
    assert report.mismatch is None


# -- report contract ---------------------------------------------------------


def test_report_json_fields_and_determinism():
    a = R.verify_entry("jtp_check", order=20).json_dict()
    b = R.verify_entry("jtp_check", order=20).json_dict()
    assert list(a) == ["name", "params", "scale", "order", "status",
                       "mismatch", "duration_ms", "path"]
    a.pop("duration_ms")
    b.pop("duration_ms")
    assert a == b
    assert a["status"] == "pass" and a["path"] == "dsl"


def test_family_defaults_and_order_rule():
    r = R.verify_entry("rr_mod3m_plus")
    assert r.params == {"m": 7, "a": 1}
    assert r.order == 84
    r = R.verify_entry("rr_mod3m_plus", {"m": 2, "a": 1})
    assert r.order == 24 and r.status == "pass"
    r = R.verify_entry("rr_mod3m_plus", {"m": 2, "a": 1}, order=30)
    assert r.order == 30 and r.status == "pass"


def test_refused_run_reports_the_rule_order():
    # A run under an order rule that runs out of budget reports the order the
    # rule gave (12*m = 24), not the spec's shipped order 156.
    r = R.verify_entry("rr_mod3m_plus", {"m": 2, "a": 1}, max_terms=5)
    assert (r.status, r.order) == ("error", 24)
    assert "term budget exhausted" in r.detail


def test_scale2_family_defaults():
    r = R.verify_entry("rr_mod2m_half_plus", {"m": 2, "a": 1})
    assert r.scale == 2 and r.order == 32 and r.status == "pass"


def test_out_of_range_binding_is_an_error():
    r = R.verify_entry("rr_mod3m_plus", {"m": 7, "a": 9})
    assert r.status == "error"
    assert "a" in (r.detail or "")


def test_unknown_entry_is_an_error():
    r = R.verify_entry("no_such_identity")
    assert r.status == "error"
    assert "unknown catalog entry" in r.detail


def test_builtin_entry_rejects_params_and_oracle():
    assert R.verify_entry("alt_theta_formal", {"m": 1}).status == "error"
    assert R.verify_entry("alt_theta_formal", use_oracle=True).status == "error"


def test_oracle_route():
    r = R.verify_entry("jtp_check", order=12, use_oracle=True)
    assert r.status == "pass" and r.path == "oracle"


def test_broken_file_reports_first_mismatch():
    path = os.path.join(R.IDENTITY_DIR, "broken", "sq_mod3_off_by_term.idn")
    (r,) = R.verify_file(path)
    assert r.status == "fail"
    m = r.mismatch
    assert (m["q_exp_num"], m["q_exp_den"], m["z_exp"]) == (17, 1, 0)
    assert m["lhs"] != m["rhs"]


def test_divergent_specimens_report_errors():
    for fname, code in (("divergent_bilateral.idn", "bilateral-no-growth"),
                        ("divergent_chain.idn", "chain-no-growth")):
        (r,) = R.verify_file(os.path.join(R.IDENTITY_DIR, "invalid", fname))
        assert r.status == "error"
        assert code in r.detail


def test_json_report_keeps_error_detail(capsys):
    path = os.path.join(R.IDENTITY_DIR, "invalid", "divergent_chain.idn")
    assert main(["verify", path, "--format", "json"]) == 2
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"] == "error"
    assert "chain-no-growth" in row["detail"]
    assert list(row)[-1] == "detail"


@pytest.mark.parametrize("argv,flag", [
    (["verify", "jtp_check", "--order", "-1"], "--order"),
    (["sweep", "rr_mod3m_plus", "--grid", "m=1..2,a=0..m", "--order", "-1"], "--order"),
    (["expand", "q", "--order", "-1"], "--order"),
    (["expand", "q", "--scale", "0"], "--scale"),
    (["sweep", "rr_mod3m_plus", "--grid", "m=1..2,a=0..m", "--jobs", "0"], "--jobs"),
], ids=["verify-order", "sweep-order", "expand-order", "expand-scale", "sweep-jobs"])
def test_bad_numbers_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >=" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr,where", [
    ("(" * 400 + "q" + ")" * 400, "line 1, column 101"),
    ("*".join(["q"] * 3000), "line 1, column "),
], ids=["nested-parentheses", "long-product"])
def test_deep_expressions_are_located_syntax_errors(expr, where, capsys):
    assert main(["expand", expr, "--order", "3"]) == 2
    err = capsys.readouterr().err
    assert "expression nested deeper than 100 levels" in err
    assert where in err
    assert "Traceback" not in err


def test_unexpected_exception_exits_2(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr("baileyforge.cli.evaluate_expr", broken)
    assert main(["expand", "q", "--order", "3"]) == 2
    assert capsys.readouterr().err.strip() == "error: KeyError: 'lost'"


@pytest.mark.parametrize("route", [[], ["--oracle"]], ids=["evaluator", "oracle"])
def test_unbound_name_is_one_clear_error(route, capsys):
    # A SpecError, not the catch-all: no exception name, no message wrapped twice.
    assert main(["expand", "q^(n)", *route]) == 2
    assert capsys.readouterr().err.strip() == "error: unbound identifier 'n'"


def _list_json(stdout):
    src = os.path.dirname(os.path.dirname(os.path.abspath(R.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, "-m", "baileyforge.cli", "list", "--format", "json"],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_closed_pipe_exits_141_quietly():
    # The reader is gone before the first write, as `| head` leaves it once it has read enough.
    read, write = os.pipe()
    os.close(read)
    proc = _list_json(write)
    os.close(write)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_pipe_closed_after_one_byte_ends_quietly():
    # Whether the rest of the output still fit in the pipe decides 0 or 141.
    proc = _list_json(subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    proc.wait(timeout=60)
    assert proc.returncode in (0, 141)
    assert err == b""


def test_oracle_raises_powers_by_squaring(monkeypatch, capsys):
    expr = "(1 + q)^(100000000)"
    assert main(["expand", expr, "--order", "3"]) == 0
    fast = capsys.readouterr().out
    mul = oracle._mul
    calls = []

    def counted(a, b, w):
        # e factors one at a time would never finish; stop them early.
        calls.append(1)
        if len(calls) > 100:
            raise RuntimeError("oracle power multiplies too often")
        return mul(a, b, w)

    monkeypatch.setattr(oracle, "_mul", counted)
    assert main(["expand", expr, "--order", "3", "--oracle"]) == 0
    assert capsys.readouterr().out == fast


def test_engine_entry_expand_refuses_params(capsys):
    # verify refuses parameters on an engine entry; expand must too.
    assert main(["verify", "alt_theta_formal", "--params", "m=3"]) == 2
    assert "entry takes no parameters" in capsys.readouterr().out
    assert main(["expand", "alt_theta_formal", "--params", "m=3", "--order", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "error: entry takes no parameters"


@pytest.mark.parametrize("argv,detail", [
    (["--params", "m=3"], "entry takes no parameters"),
    (["--oracle"], "oracle route needs a spec file"),
], ids=["params", "oracle"])
def test_engine_entry_refusal_reports_its_order(argv, detail, capsys):
    # A refused run reports the order it would have run at, not 0.
    engine_order = R.REGISTRY["alt_theta_formal"].engine_order
    for order, want in (([], engine_order), (["--order", "12"], 12)):
        assert main(["verify", "alt_theta_formal", *argv, *order, "--format", "json"]) == 2
        (report,) = json.loads(capsys.readouterr().out)
        assert (report["status"], report["detail"], report["order"]) == ("error", detail, want)


RAW_SUM_SPEC = """identity raw_theta {
  param a in 0..4
  scale 1
  order 8
  z = -q^(a)
  lhs 2 * sum(n >= 0, z^(n) * q^(n*n))
  rhs 2
}
"""


@pytest.mark.parametrize("route", [[], ["--oracle"]], ids=["fast", "oracle"])
def test_raw_sum_binds_z(route, tmp_path, capsys):
    # by hand: z = -q^2 makes the sum without its factor 2
    # sum (-1)^n q^(n^2 + 2n) = 1 - q^3 + q^8 - ...
    path = tmp_path / "raw.idn"
    path.write_text(RAW_SUM_SPEC)
    argv = ["expand", str(path), "--raw-sum", "--params", "a=2", "--order", "8"]
    assert main(argv + route) == 0
    assert capsys.readouterr().out == "q^0: 1\nq^3: -1\nq^8: 1\n"


# expand text of appell_double_half (scale 2, formal z), recorded before the
# command line and series.render shared one formatter.
EXPAND_RHS_ORDER_8 = """\
q^0: 1/2
q^1/2: 1/2
q^1: 1/2
q^3/2: 1 + -1*z
q^2: 3/2 + -1*z
q^5/2: 2 + -1*z
q^3: 5/2 + -2*z
q^7/2: -1*z^-1 + 7/2 + -2*z
q^4: -1*z^-1 + 5 + -3*z
"""
EXPAND_SHA256 = "8dd9a60bb901d08ed6f4b058bea14e78511a066c89cf6b75201a45e7fc7438aa"


def test_expand_text_is_unchanged(capsys):
    assert main(["expand", "appell_double_half", "--side", "rhs", "--order", "8"]) == 0
    assert capsys.readouterr().out == EXPAND_RHS_ORDER_8
    for side in ("lhs", "rhs"):
        assert main(["expand", "appell_double_half", "--side", side]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_SHA256


_PROBE_CHECK = """
import json, sys
sys.path.insert(0, sys.argv[1])
from baileyforge import registry
loaded = dict(sys.modules)
sys.path.insert(0, sys.argv[2])
from layers import PROBES
missing = []
for probe in PROBES:
    obj = loaded.get(probe.module)
    for part in probe.qualname.split("."):
        obj = getattr(obj, part, None)
    if not callable(obj):
        missing.append(probe.module + ":" + probe.qualname)
print(json.dumps(missing))
"""


def test_benchmark_probes_resolve():
    """Every function perfbench/layers.py traces is loaded once the registry is.

    The traced run imports only ``baileyforge.registry`` and looks each probe
    up in ``sys.modules``; a probe whose module nothing imports drops its
    metrics from that run without failing it. So the check runs in a fresh
    interpreter that does the same.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(R.__file__)))
    perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    out = subprocess.run([sys.executable, "-c", _PROBE_CHECK, src, perfbench],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []


def test_verify_file_on_missing_path():
    (r,) = R.verify_file("/no/such/place.idn")
    assert r.status == "error"


# -- sweeps ------------------------------------------------------------------


def test_grid_parse_and_expand():
    axes = R.parse_grid("m=1..2,a=0..m")
    assert R.expand_grid(axes) == [
        {"m": 1, "a": 0}, {"m": 1, "a": 1},
        {"m": 2, "a": 0}, {"m": 2, "a": 1}, {"m": 2, "a": 2},
    ]
    with pytest.raises(SpecError):
        R.parse_grid("m=1..2,a=0..k")
    with pytest.raises(SpecError):
        R.parse_grid("just-words")
    with pytest.raises(SpecError):
        R.parse_grid("")


def test_sweep_serial_and_parallel_agree():
    serial = R.sweep_entry("rr_mod3m_plus", "m=1..2,a=0..m")
    parallel = R.sweep_entry("rr_mod3m_plus", "m=1..2,a=0..m", jobs=2)
    assert len(serial) == 5
    for s, p in zip(serial, parallel):
        sd, pd = s.json_dict(), p.json_dict()
        sd.pop("duration_ms")
        pd.pop("duration_ms")
        assert sd == pd
        assert sd["status"] == "pass"
    assert [s.params for s in serial] == R.expand_grid(R.parse_grid("m=1..2,a=0..m"))


@pytest.mark.parametrize("jobs,cpus,size", [
    (10 ** 6, 64, 5),   # never more workers than grid points
    (10 ** 6, 3, 3),    # nor than CPUs
    (4, 64, 4),
    (2, 1, None),       # one CPU: no pool at all
])
def test_sweep_pool_is_clamped(monkeypatch, jobs, cpus, size):
    sizes = []

    class InlinePool:
        """Records max_workers and runs each task at once, starting no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    reports = R.sweep_entry("rr_mod3m_plus", "m=1..2,a=0..m", jobs=jobs)
    assert [r.status for r in reports] == ["pass"] * 5
    assert sizes == ([] if size is None else [size])


def test_registry_import_leaves_the_process_pool_out():
    # Only a parallel sweep needs the pool; importing it costs every run set-up time.
    src = os.path.dirname(os.path.dirname(os.path.abspath(R.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from baileyforge import registry; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_parallel_sweep_from_the_command_line(capsys):
    assert main(["sweep", "rr_mod3m_plus", "--grid", "m=1..2,a=0..1", "--jobs", "2",
                 "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in reports] == ["pass"] * 4


@pytest.mark.parametrize("argv,message", [
    (["sweep", "rr_mod3m_plus", "--grid", "m=5..1", "--format", "json"],
     "parameter grid 'm=5..1' selects no binding"),
    (["sweep", "rr_mod3m_plus", "--grid", "m=5..1"], "parameter grid 'm=5..1' selects no binding"),
    (["sweep", "rr_mod3m_plus", "--grid", "m=1..2,m=1..1,a=0..0"], "grid axis 'm' is given twice"),
    (["verify", "rr_mod3m_plus", "--params", "m=1,m=2"], "parameter 'm' is given twice"),
], ids=["empty-grid-json", "empty-grid-text", "grid-axis-twice", "param-twice"])
def test_empty_grids_and_repeated_names_are_errors(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == f"error: {message}"


def test_dependent_axis_may_be_empty_for_some_values():
    # a = 3..m is empty for m < 3, and m = 3..7 give 1 + 2 + 3 + 4 + 5 points.
    reports = R.sweep_entry("rr_mod3m_plus", "m=1..7,a=3..m")
    assert [(r.params["m"], r.params["a"]) for r in reports][:3] == [(3, 3), (4, 3), (4, 4)]
    assert len(reports) == 15
    assert {r.status for r in reports} == {"pass"}
