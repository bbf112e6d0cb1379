"""Hypothesis strategies shared by the suites that run against the oracles."""

from hypothesis import strategies as st


def transactions():
    """Random small transaction databases: 1-25 rows over items 0..7."""
    return st.lists(
        st.lists(st.integers(0, 7), max_size=6),
        min_size=1,
        max_size=25,
    )


def supports():
    """Absolute minimum supports for :func:`transactions` databases."""
    return st.integers(1, 5)
