"""Exact Stirling numbers of the second kind.

Everything here is unbounded-integer arithmetic.  S(n, k) passes 64-bit range
around n = 25, and the derivative coefficients built on top of these values
must stay exact until the final conversion to floating point.
"""

from __future__ import annotations

from math import factorial

__all__ = ["stirling2", "stirling_row"]

# Rows 0.._KEPT are built once, at import, and never written again:
# `sigmoid_nth_derivative` reads rows up to MAX_DERIVATIVE_ORDER + 1 = 31 on
# every call.  A higher row is built from the last kept one and not stored:
# kept, rows 0..n take memory growing about as n^3 (212 MB at n = 1000).
_KEPT = 32
_ROWS: list[tuple[int, ...]] = [(1,)]


def stirling_row(n: int) -> tuple[int, ...]:
    """The full row (S(n, 0), ..., S(n, n)), built bottom-up with
    S(m, k) = k*S(m-1, k) + S(m-1, k-1) from the nearest kept row, holding
    two rows at a time."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    start = min(n, len(_ROWS) - 1)
    row = _ROWS[start]
    for m in range(start + 1, n + 1):
        row = (0,) + tuple(k * row[k] + row[k - 1] for k in range(1, m)) + (1,)
        if m == len(_ROWS) <= _KEPT:
            _ROWS.append(row)
    return row


stirling_row(_KEPT)


def stirling2(n: int, k: int) -> int:
    """S(n, k): the number of partitions of an n-set into k nonempty blocks.

    Exact for any n, k; k > n is permitted and yields 0.  Computed without
    row n.  Where d = n - k has d^2 <= k, from the band D_m[i] = S(m, m - i),
    i = 0..d, by the row recurrence D_m[i] = (m - i)*D_{m-1}[i-1] + D_{m-1}[i]
    from D_0 = (1, 0, ..., 0), in n*d products.  Elsewhere from the
    alternating sum

        S(n, k) = sum_{j=0}^{k} (-1)^(k-j) C(k, j) j^n / k!

    in integers, one power at a time (0**0 = 1 gives S(0, 0) = 1): k + 1
    powers of at most n*log2(k) bits, where building the row takes about
    n^2/2 big-integer products.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        return 0
    d = n - k
    if d * d <= k:
        band = [1] + [0] * d
        for m in range(1, n + 1):
            for i in range(d, 0, -1):
                band[i] += (m - i) * band[i - 1]
        return band[d]
    total = 0
    binom = 1  # C(k, j)
    for j in range(k + 1):
        term = binom * j**n
        total += -term if (k - j) & 1 else term
        binom = binom * (k - j) // (j + 1)
    return total // factorial(k)
