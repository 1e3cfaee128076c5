"""The survivor walk that empirics.uq_cover ran before it merged each
state's continuation union, kept as the tests' differential oracle.

It extends every surviving prefix by one digit per level, carrying the
prefix's value and its automaton state, checks the survivor count against
the budget at every level, and merges the final pieces once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from fractarith.errors import FractarithError, ResourceBudget
from fractarith.exactnum import IntervalUnion, merge_triples
from fractarith.ifs_core import get_budget
from fractarith.qexp import QuasiGreedyStream, as_base


def uq_cover(q, depth: int) -> IntervalUnion:
    """Superset of the univoque set from the binary prefix tree pruned by the
    lexicographic conditions against the computed quasi-greedy window: at a
    0 digit the following digits may not exceed eta, the quasi-greedy
    expansion of 1, and at a 1 digit their complements may not.

    A prefix's state is the tuple of its positions whose condition is still
    tied with eta over all the digits after them, each as (age, digit) with
    age the number of digits after it; a new digit is compared only at those
    positions, and a position leaves the state for good once its digits fall
    below eta (or eta's budget runs out).  The transitions of a state depend
    on eta alone, so each state is interned once as an integer and its
    successors on 0 and 1 are tabulated the first time it is met; extending
    a prefix is one table lookup.

    Each surviving prefix also carries its value: for a rational base a/b as
    the integer numerator over a^depth, so that the final pieces share the
    denominator a^depth * (a - b), otherwise as an exact field element.
    """
    if depth < 0:
        raise FractarithError("depth must be non-negative")
    q = as_base(q)
    budget = get_budget()
    eta = QuasiGreedyStream(q)
    keys: list[tuple[tuple[int, int], ...]] = [()]  # state id -> tied positions
    ids = {(): 0}
    table: list[tuple[int, int] | None] = [None]  # successor ids, -1 if refuted

    def successor(tied, d: int) -> int:
        still_tied = []
        for age, flip in tied:
            e = eta.digit(age)
            c = d ^ flip
            if e is None or c < e:
                continue
            if c > e:
                return -1
            still_tied.append((age + 1, flip))
        still_tied.append((0, d))
        key = tuple(still_tied)
        sid = ids.get(key)
        if sid is None:
            sid = ids[key] = len(keys)
            keys.append(key)
            table.append(None)
        return sid

    rational = isinstance(q, Fraction)
    if rational:
        a, b = q.numerator, q.denominator
        steps = [b ** n * a ** (depth - n) for n in range(1, depth + 1)]  # q^-n * a^depth
    else:
        inv = 1 / q
        steps = list(accumulate(repeat(inv, depth), mul))  # q^-n
    survivors = [(0, 0)]  # (value, state id) per surviving prefix
    for p in steps:
        nxt = []
        for val, sid in survivors:
            succ = table[sid]
            if succ is None:
                succ = table[sid] = (successor(keys[sid], 0), successor(keys[sid], 1))
            s0, s1 = succ
            if s0 >= 0:
                nxt.append((val, s0))
            if s1 >= 0:
                nxt.append((val + p, s1))
        if len(nxt) > budget:
            raise ResourceBudget(f"{len(nxt)} surviving prefixes exceed budget")
        survivors = nxt
    if rational:
        # [N / a^depth, N / a^depth + q^-depth / (q - 1)] over a^depth * (a - b)
        tail = b ** (depth + 1)
        den = a ** depth * (a - b)
        return IntervalUnion.from_merged_triples(merge_triples(
            (n * (a - b), n * (a - b) + tail, den) for n, _ in survivors))
    tail = inv ** depth / (q - 1)
    return IntervalUnion.from_intervals((val, val + tail) for val, _ in survivors)
