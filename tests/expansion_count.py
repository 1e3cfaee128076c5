"""Branch-and-bound expansion counting, the tests' oracle for the
lexicographic criterion of unique expansions.

It knows nothing of that criterion: it keeps every digit prefix whose exact
remainder stays inside [0, 1/(q-1)].
"""

from __future__ import annotations

from fractarith.errors import FractarithError
from fractarith.exactnum import Scalar, as_scalar, scalar_sign
from fractarith.qexp import as_base


def count_expansions_bruteforce(x, q, depth: int, cap: int | None = None) -> int:
    """Branch-and-bound count of digit prefixes of expansions of x.

    Keeps every prefix whose exact remainder stays inside [0, 1/(q-1)]; the
    result is the count of surviving depth-long prefixes, truncated to `cap`
    when given (so always a lower bound).  A univoque point yields exactly 1
    at every depth.
    """
    q = as_base(q)
    x = as_scalar(x)
    ub = 1 / (q - 1)
    if scalar_sign(x) < 0 or scalar_sign(ub - x) < 0:
        raise FractarithError("point outside [0, 1/(q-1)]")
    frontier: list[Scalar] = [x]
    for _ in range(depth):
        nxt: list[Scalar] = []
        for r in frontier:
            qr = q * r
            for a in (0, 1):
                r2 = qr - a
                if scalar_sign(r2) >= 0 and scalar_sign(ub - r2) >= 0:
                    nxt.append(r2)
            if cap is not None and len(nxt) >= cap:
                nxt = nxt[:cap]
                break
        frontier = nxt
        if not frontier:
            return 0
    return len(frontier)
