"""Exact verification engine for q-series identities.

The package provides truncated bivariate Laurent series over exact
rationals (series), bilateral Bailey pair transforms and evaluators
(engine), special summation shapes (special), an identity description
language with validator and evaluator (dsl), a catalog of verified
identities (registry), and a command line front end (cli).
"""

from .errors import (
    ContextMismatchError,
    DivergentProductError,
    NegativeFloorError,
    NonUnitLeadingError,
    PoleError,
    RegionError,
    SeriesError,
    TerminationError,
    ZDegreeError,
)
from .series import (
    EvalContext,
    Monomial,
    QSeries,
    Rational,
    dilate,
    equal_up_to,
    first_mismatch,
    monomial,
    one,
    poch_finite,
    poch_infinite,
    qbinomial,
    render,
    retruncate,
    zero,
)
from .engine import (
    INFINITE,
    BilateralPair,
    aw_lemma_eval,
    bms_general_eval,
    chain_step,
    closed_form_djk_pair,
    closed_form_jouhet_pair,
    definition_limit_eval,
    general_chain_step,
    iterated_lattice_eval,
    key_pair,
    lattice_djk,
    lattice_jouhet,
    multisum_lhs,
    verify_pair_definition,
    weak_lemma_eval,
)

__version__ = "0.1.0"

__all__ = [
    "EvalContext",
    "Monomial",
    "QSeries",
    "Rational",
    "dilate",
    "equal_up_to",
    "first_mismatch",
    "monomial",
    "one",
    "poch_finite",
    "poch_infinite",
    "qbinomial",
    "render",
    "zero",
    "INFINITE",
    "BilateralPair",
    "aw_lemma_eval",
    "bms_general_eval",
    "chain_step",
    "closed_form_djk_pair",
    "closed_form_jouhet_pair",
    "definition_limit_eval",
    "general_chain_step",
    "iterated_lattice_eval",
    "key_pair",
    "lattice_djk",
    "lattice_jouhet",
    "multisum_lhs",
    "retruncate",
    "verify_pair_definition",
    "weak_lemma_eval",
    "SeriesError",
    "ContextMismatchError",
    "NonUnitLeadingError",
    "ZDegreeError",
    "DivergentProductError",
    "TerminationError",
    "NegativeFloorError",
    "PoleError",
    "RegionError",
    "__version__",
]
