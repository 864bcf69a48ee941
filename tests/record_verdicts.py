"""Record the ``verify --format json`` verdicts of every shipped ``.idn`` file.

Each file under ``src/baileyforge/identities`` (``invalid/`` and ``broken/``
included) is verified at its shipped order by the command line front end.
The row keeps the exit code and every report field but ``duration_ms``;
``tests/test_verdicts.py`` compares a fresh run against the table. Record on
a known-good commit, before the change the verdicts are meant to pin:

    PYTHONPATH=src python3 tests/record_verdicts.py > tests/verdicts.json

With ``--diff`` it records nothing: it prints, for each file whose verdict
moved from the table, every changed field as ``path: old -> new``, and
exits 1 when any moved:

    PYTHONPATH=src python3 tests/record_verdicts.py --diff
"""

import argparse
import contextlib
import io
import json
import os
import sys

from baileyforge import cli

IDENTITIES = os.path.join(os.path.dirname(cli.__file__), "identities")


def shipped_files() -> list:
    """Every shipped .idn file, relative to the identities directory, sorted."""
    out = []
    for root, _, names in os.walk(IDENTITIES):
        out.extend(os.path.relpath(os.path.join(root, n), IDENTITIES)
                   for n in names if n.endswith(".idn"))
    return sorted(out)


def verdict(rel: str) -> dict:
    """Exit code and reports of ``verify --format json`` on one shipped file."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", os.path.join(IDENTITIES, rel), "--format", "json"])
    reports = json.loads(buf.getvalue())
    for r in reports:
        del r["duration_ms"]
    return {"code": code, "reports": reports}


def changed_fields(old, new, path: str = "") -> list:
    """(path, old, new) of every field where two verdict rows differ; an absent field is None."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [c for k in sorted(old.keys() | new.keys())
                for c in changed_fields(old.get(k), new.get(k), f"{path}.{k}" if path else k)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [c for i, (a, b) in enumerate(zip(old, new))
                for c in changed_fields(a, b, f"{path}[{i}]")]
    return [] if old == new else [(path, old, new)]


def main(argv=None):
    ap = argparse.ArgumentParser(description="Record, or with --diff compare, the shipped verdicts.")
    ap.add_argument("--diff", action="store_true", help="list the fields that moved from the table")
    args = ap.parse_args(argv)
    table = {rel: verdict(rel) for rel in shipped_files()}
    if not args.diff:
        print(json.dumps(table, indent=1, sort_keys=True))
        return 0
    with open(os.path.join(os.path.dirname(__file__), "verdicts.json")) as fh:
        pinned = json.load(fh)
    moved = 0
    for rel in sorted(table.keys() | pinned.keys()):
        fields = changed_fields(pinned.get(rel), table.get(rel))
        moved += bool(fields)
        for path, old, new in fields:
            print(f"{rel}: {path or '(file)'}: {json.dumps(old)} -> {json.dumps(new)}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
