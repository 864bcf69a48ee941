"""Pinned ``verify --format json`` verdicts of every shipped ``.idn`` file.

``tests/verdicts.json`` holds, per file, the exit code and every report field
but ``duration_ms``, recorded with ``tests/record_verdicts.py``. A change
that moves any status, mismatch or error detail fails here.
"""

import json
import os

import pytest

from record_verdicts import shipped_files, verdict

with open(os.path.join(os.path.dirname(__file__), "verdicts.json")) as fh:
    PINNED = json.load(fh)


def test_every_shipped_file_is_pinned():
    assert shipped_files() == sorted(PINNED)


@pytest.mark.parametrize("rel", sorted(PINNED))
def test_verdict_unchanged(rel):
    assert verdict(rel) == PINNED[rel]
