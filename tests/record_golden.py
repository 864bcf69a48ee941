"""Print golden digest rows for every catalog entry, for ``tests/test_golden.py``.

Each entry is evaluated at its shipped order (the order rule of a family at
its default parameters, the engine order of an engine entry) and the row is
printed in the ``GOLDEN`` table's layout, with the term budget each side of
a DSL entry spends, or the units an engine entry's check spends. Record on
a known-good commit, before the change the digests are meant to pin:

    PYTHONPATH=src python3 tests/record_golden.py [name ...]
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from baileyforge.dsl.evaluator import bindings_env, evaluate  # noqa: E402
from baileyforge.errors import BudgetError  # noqa: E402
from baileyforge.registry import REGISTRY, load_spec  # noqa: E402
from test_golden import engine_spent, sides, table_digest  # noqa: E402


def shipped(entry):
    """(params, order) that ``verify`` uses for an entry by default."""
    if entry.route == "builtin-engine":
        return {}, entry.engine_order
    spec = load_spec(entry)
    params = dict(entry.default_params)
    if entry.order_rule is not None:
        return params, entry.order_rule(bindings_env(spec, params))
    return params, spec.order


def spent(spec, params, side, order) -> int:
    """The fewest term-budget units under which one side evaluates."""
    def fits(units):
        try:
            evaluate(spec, params, side, order=order, max_terms=units)
        except BudgetError:
            return False
        return True

    hi = 1
    while not fits(hi):
        hi *= 2
    lo = -1     # the largest count known not to fit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def main(names):
    for name in names or list(REGISTRY):
        entry = REGISTRY[name]
        params, order = shipped(entry)
        lhs, rhs = sides(name, params, order)
        if entry.route == "dsl":
            spec = load_spec(entry)
            units = tuple(spent(spec, params, side, order) for side in ("lhs", "rhs"))
        else:
            units = engine_spent(name, order)
        print(f'    ("{name}", {json.dumps(params)}, {order},\n'
              f'     "{table_digest(lhs)}",\n'
              f'     "{table_digest(rhs)}", {units}),')


if __name__ == "__main__":
    main(sys.argv[1:])
