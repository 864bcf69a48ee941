"""Print golden digest rows for every catalog entry, for ``tests/test_golden.py``.

Each entry is evaluated at its shipped order (the order rule of a family at
its default parameters, the engine order of an engine entry) and the row is
printed in the ``GOLDEN`` table's layout. Record on a known-good commit,
before the change the digests are meant to pin:

    PYTHONPATH=src python3 tests/record_golden.py [name ...]
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from baileyforge.dsl.evaluator import bindings_env  # noqa: E402
from baileyforge.registry import REGISTRY, load_spec  # noqa: E402
from test_golden import sides, table_digest  # noqa: E402


def shipped(entry):
    """(params, order) that ``verify`` uses for an entry by default."""
    if entry.route == "builtin-engine":
        return {}, entry.engine_order
    spec = load_spec(entry)
    params = dict(entry.default_params)
    if entry.order_rule is not None:
        return params, entry.order_rule(bindings_env(spec, params))
    return params, spec.order


def main(names):
    for name in names or list(REGISTRY):
        params, order = shipped(REGISTRY[name])
        lhs, rhs = sides(name, params, order)
        print(f'    ("{name}", {json.dumps(params)}, {order},\n'
              f'     "{table_digest(lhs)}",\n'
              f'     "{table_digest(rhs)}"),')


if __name__ == "__main__":
    main(sys.argv[1:])
