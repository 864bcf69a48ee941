"""Record the ``verify --format json`` verdicts of every shipped ``.idn`` file.

Each file under ``src/baileyforge/identities`` (``invalid/`` and ``broken/``
included) is verified at its shipped order by the command line front end.
The row keeps the exit code and every report field but ``duration_ms``;
``tests/test_verdicts.py`` compares a fresh run against the table. Record on
a known-good commit, before the change the verdicts are meant to pin:

    PYTHONPATH=src python3 tests/record_verdicts.py > tests/verdicts.json
"""

import contextlib
import io
import json
import os

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


def main():
    table = {rel: verdict(rel) for rel in shipped_files()}
    print(json.dumps(table, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
