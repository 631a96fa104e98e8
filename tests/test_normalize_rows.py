"""``normalize_rows`` against the tagged-pair form it replaced.

The oracle compares two engines' results through ``normalize_rows``:
the rows themselves, sorted by a key that orders NULLs, numbers and
strings.  The form it replaced turned every value into a tagged pair,
numbers into floats (``_tagged_rows`` below).  On ints of magnitude at
most 2**53 (where a float is exact), floats, bools, None and strings
the two must reach the same verdict, and keys must tie only on equal
rows, so that two equal multisets give one sequence.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.backends import normalize_rows, normalize_value


def _tagged_value(value):
    if value is None:
        return ("0:null",)
    if isinstance(value, (int, float)):
        return ("1:num", float(value))
    if isinstance(value, str):
        return ("2:str", value)
    return ("3:other", repr(value))


def _tagged_rows(rows):
    return tuple(sorted(tuple(_tagged_value(v) for v in row) for row in rows))


_VALUES = st.one_of(
    st.integers(-(2**53), 2**53),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)


def _rows(width: int, values=_VALUES):
    return st.lists(st.tuples(*[values] * width), max_size=12)


def _same_value(value):
    """``value`` in another representation the verdict must not see."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and abs(value) <= 2**53:
        return float(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


@given(st.data(), st.integers(1, 3))
def test_same_verdict_as_the_tagged_form(data, width):
    values = data.draw(st.sampled_from([
        _VALUES, st.integers(-3, 3), st.one_of(st.integers(-3, 3), st.none()),
        st.text(max_size=2), st.one_of(st.floats(-2, 2), st.booleans()),
    ]))
    left = data.draw(_rows(width, values))
    kind = data.draw(st.sampled_from(["permuted", "respelled", "other"]))
    if kind == "other":
        right = data.draw(_rows(width, values))
    else:
        right = data.draw(st.permutations(left))
        if kind == "respelled":
            right = [tuple(map(_same_value, row)) for row in right]
    verdict = _tagged_rows(left) == _tagged_rows(right)
    assert (normalize_rows(left) == normalize_rows(right)) == verdict


@given(st.integers(1, 3).flatmap(lambda width: _rows(width)))
def test_tied_keys_are_equal_rows(rows):
    keys = [tuple(map(normalize_value, row)) for row in rows]
    for row, key in zip(rows, keys):
        for other, other_key in zip(rows, keys):
            if key == other_key:
                assert row == other


@given(st.integers(1, 3).flatmap(lambda width: _rows(width)))
def test_rows_are_kept_and_ordered(rows):
    normalized = normalize_rows(rows)
    assert sorted(map(repr, normalized)) == sorted(map(repr, rows))
    keys = [tuple(map(normalize_value, row)) for row in normalized]
    assert keys == sorted(keys)


def test_numbers_are_keyed_by_exact_value():
    big = 2**53
    assert normalize_value(big + 1) != normalize_value(float(big))
    assert normalize_value(big + 1) > normalize_value(float(big))
    assert normalize_value(1) == normalize_value(1.0) == normalize_value(True)
    rows = [(None, big + 1), (None, float(big)), (0, "a")]
    assert normalize_rows(rows) == ((None, float(big)), (None, big + 1), (0, "a"))
