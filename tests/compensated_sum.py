"""CPython 3.12's built-in ``sum``, written in Python so that any interpreter
can run under it.

From 3.12 on, ``sum`` compensates float rounding (Neumaier's variant of
Kahan summation) while it adds exact ``float`` items; up to 3.11 it adds
them left to right.  The rule below follows ``builtin_sum_impl`` of
CPython 3.12: an int fast path, then a compensated float path, then plain
``+`` for anything else (a float subclass such as ``numpy.float64``
included).  ``python tests/compensated_sum.py`` run by CPython 3.12 or later
compares it with the real ``sum`` on random lists.
"""

from __future__ import annotations

import math
import random
import sys

# the range of a C long, which the C fast paths hold their ints in
_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


def _fast_int(item) -> bool:
    return type(item) in (int, bool) and _LONG_MIN <= item <= _LONG_MAX


def compensated_sum(iterable, /, start=0):
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in items:
            if _fast_int(item) and _LONG_MIN <= result + item <= _LONG_MAX:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
                continue
            if _fast_int(item):
                total += float(item)
                continue
            if c and math.isfinite(c):
                total += c
            result = total + item
            break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        result = result + item
    return result


def _random_lists(rng: random.Random, n: int):
    """Lists of floats of mixed magnitudes and signs, some with ints, signed
    zeros, infinities or a float start."""
    special = [0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1, -3, 2**60]
    for _ in range(n):
        scale = 10.0 ** rng.randint(-20, 20)
        items = [rng.uniform(-1.0, 1.0) * scale * 10.0 ** rng.randint(-8, 8)
                 for _ in range(rng.randint(0, 12))]
        for _ in range(rng.randint(0, 2)):
            items.insert(rng.randint(0, len(items)), rng.choice(special))
        start = rng.choice([0, 0, 0.0, -0.0, 1.5, 7])
        yield items, start


if __name__ == "__main__":
    if sys.version_info < (3, 12):
        sys.exit("run this check with CPython 3.12 or later")
    lists = list(_random_lists(random.Random(0), 20_000))
    bad = [(xs, s) for xs, s in lists
           if repr(compensated_sum(xs, s)) != repr(sum(xs, s))]
    print(f"{len(lists) - len(bad)} of {len(lists)} lists agree with the built-in sum")
    sys.exit(1 if bad else 0)
