"""Differential suite: a Dataset's vectorized value-index check.

:class:`~repro.datasets.schema.Dataset` checks every column of its id
matrix with one ``min(axis=0)`` / ``max(axis=0)`` pair against the
attributes' arities.  The per-column loop it replaced lives in
:mod:`tests.oracles.schema`.  Hypothesis draws 0-40 attributes of arity
1-5, 0-70 rows and values in ``[-2, arity + 1]``; the two must agree on
accept or reject and, on reject, on the exact message, which names the
first out-of-domain column.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import Attribute, Dataset
from tests.oracles.schema import check_value_indices


def _attributes(arities) -> list[Attribute]:
    return [
        Attribute(f"a{j}", tuple(f"v{v}" for v in range(arity)))
        for j, arity in enumerate(arities)
    ]


def _outcome(check):
    """``None`` on accept, ``(type, message)`` on reject."""
    try:
        check()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _both(arities, rows):
    attributes = _attributes(arities)
    rows = np.asarray(rows, dtype=np.int64)
    library = _outcome(
        lambda: Dataset(
            name="drawn",
            attributes=attributes,
            rows=rows,
            labels=np.zeros(len(rows), dtype=np.int32),
            class_names=("c0",),
        )
    )
    oracle = _outcome(lambda: check_value_indices(attributes, rows))
    return library, oracle


@st.composite
def schema_cases(draw):
    """Arities, and rows that are mostly in domain with a few strays, or
    drawn uniformly over ``[-2, arity + 1]`` in every cell."""
    arities = draw(st.lists(st.integers(1, 5), max_size=40))
    n_rows = draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = np.asarray(arities, dtype=np.int64)
    if draw(st.booleans()):
        rows = rng.integers(-2, high + 2, size=(n_rows, len(arities)))
    else:
        rows = rng.integers(0, high, size=(n_rows, len(arities)))
        if rows.size:
            for _ in range(draw(st.integers(0, 3))):
                i = draw(st.integers(0, n_rows - 1))
                j = draw(st.integers(0, len(arities) - 1))
                rows[i, j] = draw(st.sampled_from([-2, -1, arities[j], arities[j] + 1]))
    return arities, rows


@settings(max_examples=300, deadline=None)
@given(case=schema_cases())
@example(case=([], np.zeros((0, 0), dtype=np.int64)))
@example(case=([], np.zeros((5, 0), dtype=np.int64)))
@example(case=([3, 2], np.zeros((0, 2), dtype=np.int64)))
@example(case=([1], np.array([[-1]])))
@example(case=([2, 5, 3], np.array([[0, 4, 2], [1, 0, 3]])))
def test_vectorized_check_matches_per_column_loop(case):
    arities, rows = case
    library, oracle = _both(arities, rows)
    assert library == oracle


class TestExplicitCases:
    def test_earliest_column_is_named_whichever_bound_it_breaks(self):
        # column 1 breaks the upper bound, column 3 the lower one
        rows = [[0, 2, 0, -1], [1, 0, 1, 0]]
        library, oracle = _both([2, 2, 2, 2], rows)
        assert library == oracle
        assert library[1] == "column 1 ('a1') contains value indices outside [0, 2)"

    def test_last_row_is_checked(self):
        rows = [[0, 0]] * 69 + [[0, 5]]
        library, oracle = _both([1, 5], rows)
        assert library == oracle
        assert library[1].startswith("column 1 ")

    @pytest.mark.parametrize("n_rows", [0, 1, 70])
    def test_in_domain_rows_are_accepted(self, n_rows):
        arities = [1, 2, 3, 4, 5]
        rows = np.tile(np.asarray(arities) - 1, (n_rows, 1))
        assert _both(arities, rows) == (None, None)

    def test_subset_keeps_the_check(self):
        data = Dataset(
            name="d",
            attributes=_attributes([2, 3]),
            rows=np.array([[0, 2], [1, 0]]),
            labels=np.array([0, 1]),
        )
        data.rows[1, 1] = 3  # corrupt one stored index behind the check
        assert len(data.subset([0])) == 1
        with pytest.raises(ValueError, match=r"^column 1 \('a1'\) .* outside \[0, 3\)$"):
            data.subset([1])
