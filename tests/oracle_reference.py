"""A test-only frozen copy of the oracle's pure-Python reference as it was
when one recursion, ``count_rec``, returned the nonzero count and on
request also appended zero points, built from prefix tuples, and every
value.

``test_oracle`` holds the package's reference evaluation (``_plan``
patched to return None) against it: equal counts, zero sets and value
lists, in odometer order.
"""

import itertools
from math import prod


def substitute_first(terms: dict, value: int, modulus: int | None) -> dict:
    """Plug value into the first variable; keys lose their first entry."""
    out: dict[tuple[int, ...], int] = {}
    for exps, c in terms.items():
        e = exps[0]
        if e:
            c = c * pow(value, e, modulus) if modulus else c * value**e
        key = exps[1:]
        acc = out.get(key, 0) + c
        if modulus:
            acc %= modulus
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def count_rec(terms: dict, sets: tuple, modulus: int | None,
              prefix: tuple, zeros: list | None, values: list | None = None) -> int:
    """Nonzero count of the (partially substituted) terms over the
    remaining sets; appends zero points to ``zeros`` and every value, in
    odometer order, to ``values`` when given."""
    if not sets:
        value = terms.get((), 0)
        if values is not None:
            values.append(value)
        if value:
            return 1
        if zeros is not None:
            zeros.append(prefix)
        return 0
    if not terms:
        # identically zero on the remaining subgrid
        if zeros is not None:
            for tail in itertools.product(*sets):
                zeros.append(prefix + tail)
        if values is not None:
            values.extend([0] * prod(map(len, sets)))
        return 0
    nonzeros = 0
    rest = sets[1:]
    for a in sets[0]:
        sub = substitute_first(terms, a, modulus)
        nonzeros += count_rec(sub, rest, modulus, prefix + (a,), zeros, values)
    return nonzeros
