from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from sigapprox import stirling
from sigapprox.stirling import stirling2, stirling_row

from oracles import bell_number, count_partitions


def test_base_values():
    assert stirling2(0, 0) == 1  # empty partition convention
    assert stirling2(5, 5) == 1  # singleton blocks only
    assert stirling2(4, 2) == count_partitions(4, 2) == 7


def test_k_above_n_is_zero():
    assert stirling2(3, 5) == 0
    assert stirling2(0, 1) == 0


def test_matches_brute_force_enumeration():
    for n in range(9):
        for k in range(n + 1):
            assert stirling2(n, k) == count_partitions(n, k)


def test_recurrence_exact():
    for n in range(31):
        for k in range(n + 1):
            assert stirling2(n + 1, k) == k * stirling2(n, k) + (
                stirling2(n, k - 1) if k >= 1 else 0
            )


def test_factorial_stirling_identity():
    # k! S(n+1, k) + (k-1)! S(n+1, k-1) = (k-1)! S(n+2, k)
    for n in range(2, 21):
        for k in range(2, n + 1):
            lhs = factorial(k) * stirling2(n + 1, k) + factorial(k - 1) * stirling2(
                n + 1, k - 1
            )
            assert lhs == factorial(k - 1) * stirling2(n + 2, k)


def test_row_sums_are_bell_numbers():
    for n in range(16):
        assert sum(stirling_row(n)) == bell_number(n)


def test_rows_past_the_kept_range_are_built_and_not_kept():
    kept = len(stirling._ROWS)
    assert kept == 33  # rows 0..32; sigmoid_nth_derivative reads up to row 31
    assert stirling2(40, 20) > 2**63  # needs unbounded integers
    prev, row = stirling_row(99), stirling_row(100)
    assert len(row) == 101 and row[0] == 0 and row[100] == 1
    assert all(row[k] == k * prev[k] + prev[k - 1] for k in range(1, 100))
    assert len(stirling._ROWS) == kept
    with pytest.raises(ValueError):
        stirling_row(-1)


def test_single_values_match_the_rows():
    # both sides of the band rule (n - k)^2 <= k, with n - k up to 7 on
    # the band's side
    for n in range(61):
        row = stirling_row(n)
        assert [stirling2(n, k) for k in range(n + 1)] == list(row)
        assert stirling2(n, n + 1) == stirling2(n, 2 * n + 3) == 0


def test_a_single_value_does_not_build_its_row(monkeypatch):
    def refuse(n):
        raise AssertionError(f"stirling2 built row {n}")

    monkeypatch.setattr(stirling, "stirling_row", refuse)
    v = stirling2(3000, 1500)
    # S(3000, 1500) = stirling_row(3000)[1500], computed once by the row
    # recurrence: 17,597 bits, and its residue modulo the prime 2^61 - 1
    assert v.bit_length() == 17597
    assert v % (2**61 - 1) == 988355253242174308
    assert stirling2(1500, 3) == (3**1500 - 3 * 2**1500 + 3) // 6


def test_values_near_the_diagonal_take_the_band():
    # S(n, n-1) = C(n, 2): one block of two.  S(n, n-2) = C(n, 3) + 3*C(n, 4):
    # one block of three, or two blocks of two
    for n in list(range(2, 40)) + [100, 999, 1000, 2999, 3000]:
        assert stirling2(n, n - 1) == comb(n, 2)
        if n >= 3:
            assert stirling2(n, n - 2) == comb(n, 3) + 3 * comb(n, 4)


def test_row_shape():
    row = stirling_row(5)
    assert row == (0, 1, 15, 25, 10, 1)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(2, -1)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
def test_recurrence_property(n, k):
    assert stirling2(n + 1, k) == k * stirling2(n, k) + (
        stirling2(n, k - 1) if k >= 1 else 0
    )
