"""Golden digests of both sides of every catalog entry.

Each digest is the SHA-256 of a side's coefficient table written as sorted
``q_exp z_exp num/den`` lines. The first four digests were recorded with the
earlier geometric-series inverse and ``Fraction``-only coefficients, the
product-heavy ones with ``Fraction``-keyed product bases, so a change to the
series core or to product lowering that alters any coefficient fails here.
The rest pin every catalog entry at its shipped order and default parameters;
``tests/record_golden.py`` prints such rows.

Each row also pins the term budget each side of a DSL entry spends: the side
evaluates within exactly that many units and raises ``BudgetError`` with one
fewer, so an evaluator can neither skip nor add a budgeted summation term.
An engine entry's row pins the units its check spends over all its budgets
(``_Budget.spend``), so the engine's index sets can neither shrink nor grow.
"""

import hashlib
from fractions import Fraction

import pytest

from baileyforge.dsl.evaluator import evaluate
from baileyforge.errors import BudgetError
from baileyforge.registry import REGISTRY, load_spec
from baileyforge.series import _Budget


def table_digest(s) -> str:
    rows = []
    for qe, ze, c in sorted(s.terms()):
        c = Fraction(c)
        rows.append(f"{qe} {ze} {c.numerator}/{c.denominator}\n")
    return hashlib.sha256("".join(rows).encode()).hexdigest()


def sides(name, params, order, units=(None, None)):
    """Both sides of an entry; units caps each DSL side's term budget."""
    entry = REGISTRY[name]
    if entry.route == "builtin-engine":
        return entry.engine_check(order)
    spec = load_spec(entry)
    return (evaluate(spec, params, "lhs", order=order, max_terms=units[0]),
            evaluate(spec, params, "rhs", order=order, max_terms=units[1]))


# (name, params, order, lhs digest, rhs digest, (lhs units, rhs units) of the
# term budget; for an engine entry, the units its check spends)
GOLDEN = [
    ("qbinom_theorem", {"nn": 8}, 65,
     "cb23ce968f8d8baf979c91c2f47e4196e93f8b54f994e42c95dc47058cd1e6d4",
     "cb23ce968f8d8baf979c91c2f47e4196e93f8b54f994e42c95dc47058cd1e6d4", (0, 0)),
    ("finite_key_form", {"nn": 8}, 65,
     "ddffaf01b1af4f3ce1c84c8c2688a20eb6189bce49aefae8756472ec19fc8924",
     "ddffaf01b1af4f3ce1c84c8c2688a20eb6189bce49aefae8756472ec19fc8924", (0, 0)),
    ("alt_theta_formal", {}, 26,
     "4a3f252a89475629dc57b382ced4b49eadd75d0828b269d614bdc483148de315",
     "4a3f252a89475629dc57b382ced4b49eadd75d0828b269d614bdc483148de315", 44),
    ("rr_mod3m_plus", {"m": 3, "a": 1}, 36,
     "e5d789173c5e8a161a802de5ddc06affa9ca7922bf70ff040bf66cc89ec2f447",
     "e5d789173c5e8a161a802de5ddc06affa9ca7922bf70ff040bf66cc89ec2f447", (8, 0)),
    # Product-heavy entries at their shipped orders: chain leaves built from
    # finite products, and Appell and Hecke sums with product sides.
    ("ag_classic_k4_i1", {}, 50,
     "ee179768f2f18f352697c63cdac099efb26d77db91a4f0501d47dcd231403aa2",
     "ee179768f2f18f352697c63cdac099efb26d77db91a4f0501d47dcd231403aa2", (338, 0)),
    ("lat_appell", {}, 40,
     "be361a9bb3f41290d9a0e213f716c4aece075fa5d5ee212e7ab99a2b797f25b8",
     "be361a9bb3f41290d9a0e213f716c4aece075fa5d5ee212e7ab99a2b797f25b8", (54, 10)),
    ("hecke_half_formal", {}, 50,
     "f92a17d04f3e94de5b880625412e353b847f18e16fe0e3f0d64bff29cfd42f9e",
     "f92a17d04f3e94de5b880625412e353b847f18e16fe0e3f0d64bff29cfd42f9e", (102, 15)),
    ("hecke_full_lat1_z1", {}, 50,
     "dac91b92a8cbcb6f241938a123e11cd1096ed265fbbd8d9494c6883fcd25172c",
     "dac91b92a8cbcb6f241938a123e11cd1096ed265fbbd8d9494c6883fcd25172c", (102, 14)),
    # Every other catalog entry at its shipped order and default parameters,
    # engine entries included, recorded with tests/record_golden.py.
    ("finite_key_form", {"nn": 12}, 145,
     "f90f4dbe812050d45f9298cd7f2ce49f0ea5528d586c9878720150c659323c24",
     "f90f4dbe812050d45f9298cd7f2ce49f0ea5528d586c9878720150c659323c24", (0, 0)),
    ("qbinom_theorem", {"nn": 12}, 145,
     "a62c459cc33b745a64a15fa87bc8cd379db61b3f9c8d4a6d5c6bfb4b25748ec8",
     "a62c459cc33b745a64a15fa87bc8cd379db61b3f9c8d4a6d5c6bfb4b25748ec8", (0, 0)),
    ("jtp_check", {}, 50,
     "7b7d08d91b0cdaf561ca7915c25da1e9cef85e87bd4f77c711557c85e5106bb9",
     "7b7d08d91b0cdaf561ca7915c25da1e9cef85e87bd4f77c711557c85e5106bb9", (0, 20)),
    ("sq_mod3_formal", {}, 50,
     "8090f81742fbf34cda941933b2544d2b1c4bacaf7795fe95868ccb3c9eb67b0e",
     "8090f81742fbf34cda941933b2544d2b1c4bacaf7795fe95868ccb3c9eb67b0e", (16, 0)),
    ("halfsq_mod2_formal", {}, 50,
     "c0c0b0b2fca2fbbe65a6787e22ae32c9b231fb576f03e2d28943a9851e41412a",
     "c0c0b0b2fca2fbbe65a6787e22ae32c9b231fb576f03e2d28943a9851e41412a", (16, 0)),
    ("alt_theta_formal", {}, 50,
     "13bc2bbe17b02b4262a9045da8c23e719a88037518c4da216a4e24a1f43f89bc",
     "13bc2bbe17b02b4262a9045da8c23e719a88037518c4da216a4e24a1f43f89bc", 74),
    ("tri_mod2_pair_formal", {}, 50,
     "09666678e4dad16d7c3d99753e64a990d08d528dac1c98cdf70937bac52c96f9",
     "09666678e4dad16d7c3d99753e64a990d08d528dac1c98cdf70937bac52c96f9", (22, 0)),
    ("tri_appell_formal", {}, 50,
     "679d8402de20b4f1d88dc0bdc00a04bed5a98bd4679bed6e3d59252b967a06ba",
     "679d8402de20b4f1d88dc0bdc00a04bed5a98bd4679bed6e3d59252b967a06ba", (20, 14)),
    ("rr_mod3m_plus", {"a": 1, "m": 7}, 84,
     "87bdaf6d8ff351894aac2c573468ddfc68e736efe1c8aa239a49676f38735ad7",
     "87bdaf6d8ff351894aac2c573468ddfc68e736efe1c8aa239a49676f38735ad7", (8, 0)),
    ("rr_mod3m_minus", {"a": 3, "m": 8}, 96,
     "e8b1d3346ccab482eeb970539a7b6b0f6094936d844519c35a0de29fb30af692",
     "e8b1d3346ccab482eeb970539a7b6b0f6094936d844519c35a0de29fb30af692", (8, 0)),
    ("rr_mod2m_half_plus", {"a": 1, "m": 8}, 128,
     "fcf4ad3746834a01c81b7f58586f259623f886c25da73c7c70d3d11265f1df32",
     "fcf4ad3746834a01c81b7f58586f259623f886c25da73c7c70d3d11265f1df32", (10, 0)),
    ("rr_mod2m_half_minus", {"a": 4, "m": 10}, 160,
     "ab5cf021e61acda18ffddf73ff4a81ebd209dfea88068270e5999d586b48caa9",
     "ab5cf021e61acda18ffddf73ff4a81ebd209dfea88068270e5999d586b48caa9", (10, 0)),
    ("rr_mod4_plus_inst", {}, 50,
     "3269a525b9b830fd7b15f98b3292039d7cdc85f5f961fb7df1545b59108ba930",
     "3269a525b9b830fd7b15f98b3292039d7cdc85f5f961fb7df1545b59108ba930", (16, 0)),
    ("rr_mod4_minus_inst", {}, 50,
     "f04d7354bd587d22f6c7b0fa69b1d5790363271f378d815dfc78bc81482ba1fd",
     "f04d7354bd587d22f6c7b0fa69b1d5790363271f378d815dfc78bc81482ba1fd", (16, 0)),
    ("twoterm_mod8_inst", {}, 50,
     "7ef733ca6c6375f5151c568b317d7dd7f94d29684aacb5533b8e47fb8ad5e976",
     "7ef733ca6c6375f5151c568b317d7dd7f94d29684aacb5533b8e47fb8ad5e976", (12, 0)),
    ("twoterm_mod14_plus_inst", {}, 56,
     "829f74a06cfef8a0d37f2356580a4eff16f97d69e8eef4a62c7be2958a2dcbb9",
     "829f74a06cfef8a0d37f2356580a4eff16f97d69e8eef4a62c7be2958a2dcbb9", (10, 0)),
    ("twoterm_mod14_minus_inst", {}, 56,
     "48da1caefc2649ca7bbd8ffd0a9b879b4b3028343753592795c80c6af658b269",
     "48da1caefc2649ca7bbd8ffd0a9b879b4b3028343753592795c80c6af658b269", (10, 0)),
    ("tri_appell_even_inst", {}, 50,
     "c29bebc9f6b02c51ac0676abac91143d5327d0f566bc4105b7db368949b769ad",
     "c29bebc9f6b02c51ac0676abac91143d5327d0f566bc4105b7db368949b769ad", (14, 9)),
    ("ag_multisum_k1", {}, 50,
     "8090f81742fbf34cda941933b2544d2b1c4bacaf7795fe95868ccb3c9eb67b0e",
     "8090f81742fbf34cda941933b2544d2b1c4bacaf7795fe95868ccb3c9eb67b0e", (16, 0)),
    ("ag_multisum_k2", {}, 50,
     "31e1dea490b457867fac0f4c943d8d68f72aa978fd29034793721e28893e6ccc",
     "31e1dea490b457867fac0f4c943d8d68f72aa978fd29034793721e28893e6ccc", (44, 0)),
    ("ag_multisum_k3", {}, 50,
     "f5a2655e566297a6d2520e71e23c09aede79679fa44b48bd0d0aa4f4fd958d06",
     "f5a2655e566297a6d2520e71e23c09aede79679fa44b48bd0d0aa4f4fd958d06", (128, 0)),
    ("ag_multisum_k4", {}, 50,
     "0e8083540fc29a7b9546f2383a4bd4e01aa3e79a8f14a44259a19309b0ad6503",
     "0e8083540fc29a7b9546f2383a4bd4e01aa3e79a8f14a44259a19309b0ad6503", (338, 0)),
    ("ag_even_multisum_k1", {}, 50,
     "c0c0b0b2fca2fbbe65a6787e22ae32c9b231fb576f03e2d28943a9851e41412a",
     "c0c0b0b2fca2fbbe65a6787e22ae32c9b231fb576f03e2d28943a9851e41412a", (16, 0)),
    ("ag_even_multisum_k2", {}, 50,
     "979397bfa47cb8fbff402b532b0a28eb84d341650e2a77f5b2ab986fee925e6a",
     "979397bfa47cb8fbff402b532b0a28eb84d341650e2a77f5b2ab986fee925e6a", (44, 0)),
    ("ag_even_multisum_k3", {}, 50,
     "5da639ed8a5412e244afe8272ef4d40093d66a99f753354324a8aa97625f9b40",
     "5da639ed8a5412e244afe8272ef4d40093d66a99f753354324a8aa97625f9b40", (128, 0)),
    ("ag_even_multisum_k4", {}, 50,
     "f4556913b662779d7099162b766b95eae34e95897dbb838dffe4bd11473c78f6",
     "f4556913b662779d7099162b766b95eae34e95897dbb838dffe4bd11473c78f6", (338, 0)),
    ("ag_classic_k1_i1", {}, 50,
     "e071ff143fac63206f21b0247c30603d075397ab078a56a12a9d2f33f9ec5aab",
     "e071ff143fac63206f21b0247c30603d075397ab078a56a12a9d2f33f9ec5aab", (16, 0)),
    ("ag_classic_k2_i1", {}, 50,
     "8aeedc652c844bb2e34ed796cd9c29f7371a255d7bedb90aceff37567699b6bb",
     "8aeedc652c844bb2e34ed796cd9c29f7371a255d7bedb90aceff37567699b6bb", (44, 0)),
    ("ag_classic_k2_i2", {}, 50,
     "71f4df7ef47886ca102192e4de3f3699920980c880f34e02aac43f2ccd165a91",
     "71f4df7ef47886ca102192e4de3f3699920980c880f34e02aac43f2ccd165a91", (44, 0)),
    ("ag_classic_k3_i1", {}, 50,
     "66054ce319d480c89a64263aab06e8be2a5d89bdab2c0ffce6a6f53088467446",
     "66054ce319d480c89a64263aab06e8be2a5d89bdab2c0ffce6a6f53088467446", (128, 0)),
    ("ag_classic_k3_i2", {}, 50,
     "22f24008b1522fb5223fa316e7b05c6cde7a6485002576ef91d6a35e7afef8c0",
     "22f24008b1522fb5223fa316e7b05c6cde7a6485002576ef91d6a35e7afef8c0", (128, 0)),
    ("ag_classic_k3_i3", {}, 50,
     "ce5063652e9c33aed893efa0a2361cc6ea386630e1e6705120b919ec4aad3ddd",
     "ce5063652e9c33aed893efa0a2361cc6ea386630e1e6705120b919ec4aad3ddd", (128, 0)),
    ("ag_classic_k4_i2", {}, 50,
     "fbba16476b9b3f4a83cb8ba5c73069ac3b8418a8e692106ef041650ff8feaa29",
     "fbba16476b9b3f4a83cb8ba5c73069ac3b8418a8e692106ef041650ff8feaa29", (338, 0)),
    ("ag_classic_k4_i3", {}, 50,
     "285698b93d2f3e91e4f268842684cdab1240af4d6ce3e5886100ce7e365aa909",
     "285698b93d2f3e91e4f268842684cdab1240af4d6ce3e5886100ce7e365aa909", (338, 0)),
    ("ag_classic_k4_i4", {}, 50,
     "a1f9a2501c2c65166c7686168946da5b5acdd0e1c028c8ee3d189d26602db2eb",
     "a1f9a2501c2c65166c7686168946da5b5acdd0e1c028c8ee3d189d26602db2eb", (338, 0)),
    ("ag_even_classic_k1_i1", {}, 50,
     "e071ff143fac63206f21b0247c30603d075397ab078a56a12a9d2f33f9ec5aab",
     "e071ff143fac63206f21b0247c30603d075397ab078a56a12a9d2f33f9ec5aab", (16, 0)),
    ("ag_even_classic_k1_i2", {}, 50,
     "3269a525b9b830fd7b15f98b3292039d7cdc85f5f961fb7df1545b59108ba930",
     "3269a525b9b830fd7b15f98b3292039d7cdc85f5f961fb7df1545b59108ba930", (16, 0)),
    ("ag_even_classic_k2_i1", {}, 50,
     "b5d62867fac16ffc13ade9f76302911b1c82b3e9e2381d083adae88e7c7f42f9",
     "b5d62867fac16ffc13ade9f76302911b1c82b3e9e2381d083adae88e7c7f42f9", (44, 0)),
    ("ag_even_classic_k2_i2", {}, 50,
     "9a212de14f23f257df1258b2a34131cd3fe2f20ae2b1b794166d6a049c16f4a6",
     "9a212de14f23f257df1258b2a34131cd3fe2f20ae2b1b794166d6a049c16f4a6", (44, 0)),
    ("ag_even_classic_k2_i3", {}, 50,
     "9807d990fde89fb03a81f555a5d6bc5841ecbf76ac78c4d26627128f152c91c2",
     "9807d990fde89fb03a81f555a5d6bc5841ecbf76ac78c4d26627128f152c91c2", (44, 0)),
    ("ag_even_classic_k3_i1", {}, 50,
     "e7cd50e790d74bd0a0478c996f51209394d38f8e2aac3c844a10c632a5508cb4",
     "e7cd50e790d74bd0a0478c996f51209394d38f8e2aac3c844a10c632a5508cb4", (128, 0)),
    ("ag_even_classic_k3_i2", {}, 50,
     "a2dd7997dda61b1f850fbc19206930845b2dc76b366192c8452c11a20372f465",
     "a2dd7997dda61b1f850fbc19206930845b2dc76b366192c8452c11a20372f465", (128, 0)),
    ("ag_even_classic_k3_i3", {}, 50,
     "cfd38194a8ed058cb2dbea1d2b5ebeb00f6cca389a7640e03f9055eb031dbe38",
     "cfd38194a8ed058cb2dbea1d2b5ebeb00f6cca389a7640e03f9055eb031dbe38", (128, 0)),
    ("ag_even_classic_k3_i4", {}, 50,
     "9a007ff74ddbc5a76ade62bd2733aa7169f7da5039c4564acf39feb919cc94c6",
     "9a007ff74ddbc5a76ade62bd2733aa7169f7da5039c4564acf39feb919cc94c6", (128, 0)),
    ("ag_diag_k2", {}, 50,
     "71f4df7ef47886ca102192e4de3f3699920980c880f34e02aac43f2ccd165a91",
     "71f4df7ef47886ca102192e4de3f3699920980c880f34e02aac43f2ccd165a91", (16, 0)),
    ("ag_diag_k3", {}, 50,
     "ce5063652e9c33aed893efa0a2361cc6ea386630e1e6705120b919ec4aad3ddd",
     "ce5063652e9c33aed893efa0a2361cc6ea386630e1e6705120b919ec4aad3ddd", (44, 0)),
    ("ag_diag_k4", {}, 50,
     "a1f9a2501c2c65166c7686168946da5b5acdd0e1c028c8ee3d189d26602db2eb",
     "a1f9a2501c2c65166c7686168946da5b5acdd0e1c028c8ee3d189d26602db2eb", (128, 0)),
    ("lat_single_appell", {}, 40,
     "119ed2c1e4a854a1fcb3929a0e553f67cd0ac00bc8a7a35a13756e6ae1fae363",
     "119ed2c1e4a854a1fcb3929a0e553f67cd0ac00bc8a7a35a13756e6ae1fae363", (82, 12)),
    ("appell_double_sq", {}, 40,
     "f5b16fce26fb6236c43bc8f8946541a36a0d43f37e38d0327ee6fdac41c62c37",
     "f5b16fce26fb6236c43bc8f8946541a36a0d43f37e38d0327ee6fdac41c62c37", (35, 9)),
    ("appell_double_half", {}, 80,
     "e84db24b7e34363f895dee0b89e01692530d02bd1ec696a93f3d58af0da87a41",
     "e84db24b7e34363f895dee0b89e01692530d02bd1ec696a93f3d58af0da87a41", (54, 10)),
    ("appell_double_alt", {}, 80,
     "1ef2583a7ecaa28b6121009dbe42144f186dc8ab68f75acdf6c9d164bb1e64dc",
     "1ef2583a7ecaa28b6121009dbe42144f186dc8ab68f75acdf6c9d164bb1e64dc", 96),
    ("euler_bridge", {}, 40,
     "f5b16fce26fb6236c43bc8f8946541a36a0d43f37e38d0327ee6fdac41c62c37",
     "f5b16fce26fb6236c43bc8f8946541a36a0d43f37e38d0327ee6fdac41c62c37", (35, 12)),
    ("lat_mod4", {}, 40,
     "cbbf562b1e5a92bd9d1650dba0d6835c6bc537712278b3aa5d55708d035adc48",
     "cbbf562b1e5a92bd9d1650dba0d6835c6bc537712278b3aa5d55708d035adc48", (35, 0)),
    ("lat_mod3_half", {}, 80,
     "5b572dca65722aff93c1f231660f210b108966c2015da236f4acabc387b662b4",
     "5b572dca65722aff93c1f231660f210b108966c2015da236f4acabc387b662b4", (54, 0)),
    ("lat_mod3_pair", {}, 40,
     "124d0e12dec0241d4f69e6e9938efdedae80de6bd09d07c1091d01063f9ecdcc",
     "124d0e12dec0241d4f69e6e9938efdedae80de6bd09d07c1091d01063f9ecdcc", (65, 0)),
    ("lat_alt_theta", {}, 80,
     "9ffb324ec6c766a7d1a98197bae46b790d1bb2e81248a151ccb8374858648f00",
     "9ffb324ec6c766a7d1a98197bae46b790d1bb2e81248a151ccb8374858648f00", 56),
    ("lat_mod6_inst", {}, 40,
     "fbec580cb10991e685259cdd1689d48b35667759e2a47e05e570157a9e5445a8",
     "fbec580cb10991e685259cdd1689d48b35667759e2a47e05e570157a9e5445a8", (12, 0)),
    ("hecke_full_formal", {}, 50,
     "4ca407c77db904367711dccd0d67af59f0e2205895eb681a836fec540a44decf",
     "4ca407c77db904367711dccd0d67af59f0e2205895eb681a836fec540a44decf", (102, 8)),
    ("hecke_triangular_counts", {}, 50,
     "506c3651094c3a36f7a51bdb37b56721a8bf5463473e93e14889d4162b6b17a8",
     "506c3651094c3a36f7a51bdb37b56721a8bf5463473e93e14889d4162b6b17a8", (102, 14)),
    ("hecke_half_plus_inst", {}, 50,
     "9aec0ec0ed84bfe1e221205a3f880e421224133801e50e6e6a70d6535cc31fa7",
     "9aec0ec0ed84bfe1e221205a3f880e421224133801e50e6e6a70d6535cc31fa7", (102, 14)),
    ("hecke_half_minus_inst", {}, 50,
     "13715b1442978fdd039fcbf071b52b7ae5e8741b8e6b2b37829d98afb90d93a3",
     "13715b1442978fdd039fcbf071b52b7ae5e8741b8e6b2b37829d98afb90d93a3", (102, 14)),
    ("hecke_odd_counts", {}, 50,
     "03c909afdf68249f8bf9cf6e186de3a68b61297964ad22f1f21891cc3e3ba4cd",
     "03c909afdf68249f8bf9cf6e186de3a68b61297964ad22f1f21891cc3e3ba4cd", (102, 10)),
    ("hecke_full_lat1", {}, 50,
     "078b4b91cf0726d6da71f37c0c1c030ef2ab6185242098c09d9dc65cebb82157",
     "078b4b91cf0726d6da71f37c0c1c030ef2ab6185242098c09d9dc65cebb82157", (102, 7)),
    ("hecke_half_lat1", {}, 50,
     "1cda5b2914757895c8b29069c1484c0879f75632f2fa95c2dee44e5f48089ef9",
     "1cda5b2914757895c8b29069c1484c0879f75632f2fa95c2dee44e5f48089ef9", (102, 10)),
    ("hecke_half_lat1_z1", {}, 50,
     "da4d5a3d688460c89d8423f2ce3030391d815339648b9c012be9ade648c9dead",
     "da4d5a3d688460c89d8423f2ce3030391d815339648b9c012be9ade648c9dead", (102, 10)),
    ("hecke_full_lat2", {}, 50,
     "1337b061e0bbadb3e5025e59f928a01ae0f52da7acebefaf797f2a3ab0437618",
     "1337b061e0bbadb3e5025e59f928a01ae0f52da7acebefaf797f2a3ab0437618", (102, 8)),
    ("hecke_half_lat2", {}, 50,
     "f40fbd61d9da3680e2c5433ad71d19b96420e4b35f8ea4c6a523735861e986d4",
     "f40fbd61d9da3680e2c5433ad71d19b96420e4b35f8ea4c6a523735861e986d4", (102, 11)),
    ("hecke_full_lat2_z1", {}, 50,
     "34d9f1575b70df20b2f945dd7978bc2fabbdc3521f1fbacf25045f0ddd76e810",
     "34d9f1575b70df20b2f945dd7978bc2fabbdc3521f1fbacf25045f0ddd76e810", (34, 8)),
    ("hecke_half_lat2_z1", {}, 50,
     "02e1e823b2e28bb5e3c766da8121abbfba0ff1cae0b69b3c3c174f0327041af8",
     "02e1e823b2e28bb5e3c766da8121abbfba0ff1cae0b69b3c3c174f0327041af8", (34, 11)),
]


def _ids(rows):
    # An entry pinned twice gets its order in the id of the later row.
    seen: set = set()
    out = []
    for name, _, order, *_ in rows:
        out.append(name if name not in seen else f"{name}@{order}")
        seen.add(name)
    return out


@pytest.mark.parametrize("name,params,order,lhs_digest,rhs_digest,units", GOLDEN, ids=_ids(GOLDEN))
def test_side_digests(name, params, order, lhs_digest, rhs_digest, units):
    lhs, rhs = sides(name, params, order, units)
    assert (table_digest(lhs), table_digest(rhs)) == (lhs_digest, rhs_digest)


def engine_spent(name, order) -> int:
    """The term-budget units an engine entry's check spends, over every budget it opens."""
    spent = [0]
    spend = _Budget.spend

    def counted(budget, n=1):
        spent[0] += n
        spend(budget, n)

    _Budget.spend = counted
    try:
        REGISTRY[name].engine_check(order)
    finally:
        _Budget.spend = spend
    return spent[0]


ENGINE = [row for row in GOLDEN if isinstance(row[5], int)]


@pytest.mark.parametrize("name,order,units", [(r[0], r[2], r[5]) for r in ENGINE], ids=_ids(ENGINE))
def test_engine_term_spend_is_pinned(name, order, units):
    assert engine_spent(name, order) == units


BUDGETED = [row for row in GOLDEN if isinstance(row[5], tuple) and any(row[5])]


@pytest.mark.parametrize("name,params,order,units", [(r[0], r[1], r[2], r[5]) for r in BUDGETED],
                         ids=_ids(BUDGETED))
def test_term_budget_is_pinned(name, params, order, units):
    spec = load_spec(REGISTRY[name])
    for side, spent in zip(("lhs", "rhs"), units):
        if spent:
            with pytest.raises(BudgetError):
                evaluate(spec, params, side, order=order, max_terms=spent - 1)
