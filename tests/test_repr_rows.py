"""repr_rows against Python's own repr, cell by cell: a property over every
float64 and bit pattern, then a fixed sweep of the values where a shortest-digit
algorithm or repr's layout can go wrong, each with both of its neighbours."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim._repr_rows import repr_rows

from reference_paths import csv_rows

CHUNK = 2**16  # the rows per call in the CLI


def assert_matches_repr(values, first=0):
    values = np.asarray(values, dtype=np.float64)
    for a in range(0, values.size, CHUNK):
        chunk = values[a : a + CHUNK]
        expected = csv_rows(list(enumerate(chunk.tolist(), first + a)), ("n", "P_n"))
        assert "n,P_n\n" + repr_rows(first + a, chunk) == expected  # csv_rows writes the header too


def with_neighbours(values):
    """values, their negatives, and the doubles just below and just above each."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@given(st.lists(st.floats(), max_size=40), st.integers(min_value=0, max_value=10**12))
@settings(max_examples=200, deadline=None)
def test_any_float_and_any_row_number(values, first):
    assert_matches_repr(values, first)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_any_bit_pattern(patterns):
    assert_matches_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_every_power_of_two():
    assert_matches_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_the_double_nearest_each_power_of_ten():
    assert_matches_repr(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_layout_edges_and_extremes():
    # repr switches to exponent notation below 1e-4 and from 1e16 on
    edges = [1e-4, 1e-5, 1e16, 1e17, 9999999999999998.0, 0.0, 5e-324, np.finfo(float).max]
    assert_matches_repr(with_neighbours(edges + [np.inf, np.nan]))


def test_random_bit_patterns():
    patterns = np.random.default_rng(20).integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert_matches_repr(patterns.view(np.float64), first=7)
