"""The benchmark's workloads: fixed verification jobs and the verdicts they must give.

A job is ``("entry", name, params, order)`` for ``verify_entry``,
``("file", path)`` for ``verify_file`` on a file under the identity
directory, or ``("sweep", name, grid)`` for a serial ``sweep_entry``. The seed only
permutes the order of a workload's jobs.
"""

from __future__ import annotations

import random

# Large cold inverts, the engine route (alt_theta_formal), and hits and
# misses of the Appell/Hecke recognizers. Each entry is (name, params, order);
# None keeps the catalog's default. Two entries are made smaller so that a
# cold pass stays near 7 s and a run holds several passes (see README.md):
# qbinom_theorem takes nn=8, whose shipped order rule gives order 65, and
# alt_theta_formal runs at order 26, not 50.
CATALOG_MIX = (
    ("qbinom_theorem", {"nn": 8}, None),
    ("alt_theta_formal", None, 26),
    ("hecke_half_lat2", None, None),
    ("hecke_odd_counts", None, None),
    ("lat_single_appell", None, None),
    ("appell_double_half", None, None),
    ("jtp_check", None, None),
    ("twoterm_mod8_inst", None, None),
)

# Chain multisums, where the validator's oracle probe does much of the work.
CHAIN_MULTISUMS = (
    "ag_even_multisum_k3",
    "ag_diag_k4",
)

# Bad user files: a faster validator that stops rejecting them shows up as failures.
SPECIMENS = {
    "invalid/divergent_bilateral.idn": {"status": "error", "code": "bilateral-no-growth"},
    "invalid/divergent_chain.idn": {"status": "error", "code": "chain-no-growth"},
    "broken/sq_mod3_off_by_term.idn": {
        "status": "fail",
        "mismatch": {"q_exp": "17", "z_exp": 0, "lhs": "297", "rhs": "298"},
    },
}

# Every product family over the low part of its declared grid: many small
# evaluations sharing warm process-wide caches.
FAMILIES = (
    ("rr_mod3m_plus", "m=1..7,a=0..m"),
    ("rr_mod3m_minus", "m=1..7,a=0..m"),
    ("rr_mod2m_half_plus", "m=1..5,a=0..m"),
    ("rr_mod2m_half_minus", "m=1..5,a=0..m"),
)

# Two workloads of about 7 s per cold pass. On a noisy shared host a run is
# steadier when it holds several short passes than one long one, so the chain
# multisums and the family sweeps share one workload.
WORKLOADS = {
    "catalog-mix": tuple(("entry", n, p, o) for n, p, o in CATALOG_MIX),
    "chain-sweep": tuple(("entry", n, None, None) for n in CHAIN_MULTISUMS)
    + tuple(("file", p) for p in SPECIMENS)
    + tuple(("sweep", n, g) for n, g in FAMILIES),
}


def jobs(workload: str, seed: int) -> list:
    """The workload's jobs in the order given by ``seed``."""
    out = list(WORKLOADS[workload])
    random.Random(seed).shuffle(out)
    return out


def expected_status(key: str) -> dict:
    """The hand-written expected verdict for a verdict key; catalog verdicts must pass."""
    if key.startswith("file:"):
        return dict(SPECIMENS[key[len("file:"):]])
    return {"status": "pass"}
