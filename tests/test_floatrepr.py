"""``_floatrepr.fields`` spells every double as ``repr`` does: Hypothesis
properties over raw bit patterns and ``st.floats()``, and fixed families of
doubles at the edges of its digits and its spelling."""

import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsens import _floatrepr
from logsens._floatrepr import WIDTH, fields

TWO_50 = 2.0 ** 50  # the first |x| that repr spells, not Ryu


def neighbours(x):
    """``x`` and the doubles either side of it, with their negatives."""
    near = [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return np.array(near + [-v for v in near])


def assert_spelled_as_repr(values):
    """Each field, less its NULs, is ``repr`` of its double; less its sign
    byte too, ``repr`` of the double's absolute value."""
    values = np.asarray(values, dtype=np.float64)
    got = fields(values)
    assert got.shape == (len(values), WIDTH) and got.dtype == np.uint8
    for v, field in zip(values.tolist(), got):
        assert field[0] in (0, ord("-"))
        assert bytes(field).replace(b"\0", b"").decode() == repr(v)
        assert bytes(field[1:]).replace(b"\0", b"").decode() == repr(abs(v))


def exact_tie(x):
    """Whether ``repr(x)`` rounds ``x``'s exact decimal value half-way: the
    digits past repr's are one 5."""
    shown = decimal.Decimal(repr(x)).normalize().as_tuple().digits
    exact = decimal.Decimal(x).as_tuple().digits  # every digit of the double
    return exact[len(shown):] == (5,)


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=50))
def test_bit_patterns(bits):
    assert_spelled_as_repr(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_floats(values):
    assert_spelled_as_repr(values)


def test_powers_of_two_and_their_neighbours():
    assert_spelled_as_repr(np.concatenate([neighbours(2.0 ** k) for k in range(-1074, 1024)]))


def test_subnormal_edges():
    tiny = 5e-324
    largest_subnormal = np.nextafter(2.2250738585072014e-308, 0)
    assert_spelled_as_repr(np.concatenate([
        neighbours(tiny), neighbours(2 * tiny), neighbours(largest_subnormal),
        neighbours(2.2250738585072014e-308)]))


def test_ryu_ends_below_two_to_the_50(monkeypatch):
    below = np.nextafter(TWO_50, 0)
    calls = []
    monkeypatch.setattr(_floatrepr, "repr", lambda v: calls.append(v) or repr(v),
                        raising=False)
    assert_spelled_as_repr(neighbours(TWO_50))
    assert sorted(calls) == sorted([TWO_50, np.nextafter(TWO_50, np.inf),
                                    -TWO_50, -np.nextafter(TWO_50, np.inf)])
    assert below not in calls


@pytest.mark.parametrize("switch", [1e-4, 1e-5, 1e15, 1e16])
def test_fixed_and_exponent_spelling_switches(switch):
    # repr's fixed form runs from 1e-4 to below 1e16; 1e15 starts its
    # 16-digit integer parts, the widest fixed form below 2^50
    assert_spelled_as_repr(neighbours(switch))


def test_zeros_infinities_and_nan():
    assert_spelled_as_repr([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])


def test_exact_decimal_ties_round_half_to_even():
    rng = np.random.default_rng(0)
    candidates = rng.integers(2 ** 52, 2 ** 53, 2000) / 2.0 ** rng.integers(3, 12, 2000)
    ties = [x for x in candidates.tolist() if x < TWO_50 and exact_tie(x)]
    down = [x for x in ties if decimal.Decimal(repr(x)) < decimal.Decimal(x)]
    assert len(ties) > 100 and 0 < len(down) < len(ties)  # both directions
    assert_spelled_as_repr(ties)


def test_empty():
    assert fields(np.array([])).shape == (0, WIDTH)
