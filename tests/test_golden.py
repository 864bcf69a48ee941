"""Golden digests of both sides of a few invert- and product-heavy catalog cases.

Each digest is the SHA-256 of a side's coefficient table written as sorted
``q_exp z_exp num/den`` lines. The first four digests were recorded with the
earlier geometric-series inverse and ``Fraction``-only coefficients, the
product-heavy ones with ``Fraction``-keyed product bases, so a change to the
series core or to product lowering that alters any coefficient fails here.
"""

import hashlib
from fractions import Fraction

import pytest

from baileyforge.dsl.evaluator import evaluate
from baileyforge.registry import REGISTRY, load_spec


def table_digest(s) -> str:
    rows = []
    for qe, ze, c in sorted(s.terms()):
        c = Fraction(c)
        rows.append(f"{qe} {ze} {c.numerator}/{c.denominator}\n")
    return hashlib.sha256("".join(rows).encode()).hexdigest()


def sides(name, params, order):
    entry = REGISTRY[name]
    if entry.route == "builtin-engine":
        return entry.engine_check(order)
    spec = load_spec(entry)
    return (evaluate(spec, params, "lhs", order=order),
            evaluate(spec, params, "rhs", order=order))


# (name, params, order, lhs digest, rhs digest)
GOLDEN = [
    ("qbinom_theorem", {"nn": 8}, 65,
     "cb23ce968f8d8baf979c91c2f47e4196e93f8b54f994e42c95dc47058cd1e6d4",
     "cb23ce968f8d8baf979c91c2f47e4196e93f8b54f994e42c95dc47058cd1e6d4"),
    ("finite_key_form", {"nn": 8}, 65,
     "ddffaf01b1af4f3ce1c84c8c2688a20eb6189bce49aefae8756472ec19fc8924",
     "ddffaf01b1af4f3ce1c84c8c2688a20eb6189bce49aefae8756472ec19fc8924"),
    ("alt_theta_formal", {}, 26,
     "4a3f252a89475629dc57b382ced4b49eadd75d0828b269d614bdc483148de315",
     "4a3f252a89475629dc57b382ced4b49eadd75d0828b269d614bdc483148de315"),
    ("rr_mod3m_plus", {"m": 3, "a": 1}, 36,
     "e5d789173c5e8a161a802de5ddc06affa9ca7922bf70ff040bf66cc89ec2f447",
     "e5d789173c5e8a161a802de5ddc06affa9ca7922bf70ff040bf66cc89ec2f447"),
    # Product-heavy entries at their shipped orders: chain leaves built from
    # finite products, and Appell and Hecke sums with product sides.
    ("ag_classic_k4_i1", {}, 50,
     "ee179768f2f18f352697c63cdac099efb26d77db91a4f0501d47dcd231403aa2",
     "ee179768f2f18f352697c63cdac099efb26d77db91a4f0501d47dcd231403aa2"),
    ("lat_appell", {}, 40,
     "be361a9bb3f41290d9a0e213f716c4aece075fa5d5ee212e7ab99a2b797f25b8",
     "be361a9bb3f41290d9a0e213f716c4aece075fa5d5ee212e7ab99a2b797f25b8"),
    ("hecke_half_formal", {}, 50,
     "f92a17d04f3e94de5b880625412e353b847f18e16fe0e3f0d64bff29cfd42f9e",
     "f92a17d04f3e94de5b880625412e353b847f18e16fe0e3f0d64bff29cfd42f9e"),
    ("hecke_full_lat1_z1", {}, 50,
     "dac91b92a8cbcb6f241938a123e11cd1096ed265fbbd8d9494c6883fcd25172c",
     "dac91b92a8cbcb6f241938a123e11cd1096ed265fbbd8d9494c6883fcd25172c"),
]


@pytest.mark.parametrize("name,params,order,lhs_digest,rhs_digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_side_digests(name, params, order, lhs_digest, rhs_digest):
    lhs, rhs = sides(name, params, order)
    assert (table_digest(lhs), table_digest(rhs)) == (lhs_digest, rhs_digest)
