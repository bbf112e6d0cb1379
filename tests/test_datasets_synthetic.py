"""Tests for the planted-structure generator and the dataset registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    Dataset,
    SyntheticSpec,
    TransactionDataset,
    available_datasets,
    generate,
    load_uci,
)
from repro.datasets.uci import SCALABILITY_SPECS, UCI_SPECS


class TestSpecValidation:
    def test_combo_space_too_small_rejected(self):
        with pytest.raises(ValueError, match="combo space"):
            SyntheticSpec(
                name="x", n_rows=10, n_attributes=4, n_classes=10,
                arity=2, pattern_attributes=2, combos_per_class=2,
            )

    def test_block_exceeding_attributes_rejected(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            SyntheticSpec(
                name="x", n_rows=10, n_attributes=3, n_classes=2,
                pattern_attributes=3, single_attributes=1,
            )

    def test_bad_priors_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SyntheticSpec(
                name="x", n_rows=10, n_attributes=5, n_classes=2,
                class_priors=(0.9, 0.5),
            )

    def test_scaled_changes_only_rows(self, planted_spec):
        scaled = planted_spec.scaled(0.5)
        assert scaled.n_rows == 150
        assert scaled.n_attributes == planted_spec.n_attributes
        assert scaled.seed == planted_spec.seed


class TestGeneration:
    def test_deterministic(self, planted_spec):
        a = generate(planted_spec)
        b = generate(planted_spec)
        assert (a.rows == b.rows).all()
        assert (a.labels == b.labels).all()

    def test_shape(self, planted_dataset, planted_spec):
        assert planted_dataset.n_rows == planted_spec.n_rows
        assert planted_dataset.n_attributes == planted_spec.n_attributes
        assert planted_dataset.n_classes == planted_spec.n_classes

    def test_structure_returned(self, planted_spec):
        dataset, structure = generate(planted_spec, return_structure=True)
        assert len(structure.signal_attributes) == planted_spec.pattern_attributes
        assert len(structure.combos) == planted_spec.n_classes
        for class_combos in structure.combos:
            assert len(class_combos) == planted_spec.combos_per_class

    def test_combos_distinct_across_classes(self, planted_spec):
        _, structure = generate(planted_spec, return_structure=True)
        all_combos = [c for combos in structure.combos for c in combos]
        assert len(set(all_combos)) == len(all_combos)

    def test_column_shuffle_matches_marginals(self, planted_spec):
        """Marginal value multisets of the signal block match across classes."""
        _, structure = generate(planted_spec, return_structure=True)
        reference = None
        for class_combos in structure.combos:
            marginals = tuple(
                tuple(sorted(combo[j] for combo in class_combos))
                for j in range(len(structure.signal_attributes))
            )
            if reference is None:
                reference = marginals
            else:
                assert marginals == reference

    def test_planted_combo_is_frequent_within_class(self, planted_spec):
        dataset, structure = generate(planted_spec, return_structure=True)
        data = TransactionDataset.from_dataset(dataset)
        catalog = data.catalog
        combo = structure.combos[0][0]
        items = tuple(
            catalog.item_id(attribute, value)
            for attribute, value in zip(structure.signal_attributes, combo)
        )
        per_class = data.class_support_counts(items)
        class_total = data.class_counts()[0]
        # Expected in-class support ~ strength / combos_per_class = 0.45.
        assert per_class[0] / class_total > 0.2

    def test_patterns_beat_single_items(self, planted_spec):
        """The planted combo has higher IG than any single signal item."""
        from repro.mining import Pattern
        from tests.oracles.scoring import batch_pattern_stats, information_gain

        dataset, structure = generate(planted_spec, return_structure=True)
        data = TransactionDataset.from_dataset(dataset)
        catalog = data.catalog
        combo = structure.combos[0][0]
        combo_items = tuple(
            catalog.item_id(a, v)
            for a, v in zip(structure.signal_attributes, combo)
        )
        signal_items = [
            catalog.item_id(a, v)
            for a in structure.signal_attributes
            for v in range(planted_spec.arity)
        ]
        patterns = [Pattern(items=combo_items, support=0)] + [
            Pattern(items=(i,), support=0) for i in signal_items
        ]
        stats = batch_pattern_stats(patterns, data)
        gains = [information_gain(s) for s in stats]
        assert gains[0] > max(gains[1:])


class TestRegistry:
    @pytest.mark.slow
    def test_all_names_load(self):
        for name in available_datasets():
            dataset = load_uci(name, scale=0.1)
            assert isinstance(dataset, Dataset)
            assert dataset.n_rows >= 10

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_uci("nope")

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            load_uci("iris", scale=0.0)

    def test_registry_shapes_match_uci(self):
        expected = {
            "austral": (690, 14, 2),
            "breast": (699, 9, 2),
            "sonar": (208, 60, 2),
            "iris": (150, 4, 3),
            "zoo": (101, 16, 7),
        }
        for name, (rows, attributes, classes) in expected.items():
            spec = UCI_SPECS[name]
            assert (spec.n_rows, spec.n_attributes, spec.n_classes) == (
                rows,
                attributes,
                classes,
            )

    def test_scalability_shapes(self):
        assert SCALABILITY_SPECS["chess"].n_rows == 3196
        assert SCALABILITY_SPECS["waveform"].n_rows == 5000
        assert SCALABILITY_SPECS["letter"].n_rows == 20000
        assert SCALABILITY_SPECS["letter"].n_classes == 26


@settings(max_examples=20, deadline=None)
@given(
    n_rows=st.integers(20, 120),
    n_classes=st.integers(2, 4),
    arity=st.integers(2, 4),
    seed=st.integers(0, 1000),
)
def test_generation_always_valid(n_rows, n_classes, arity, seed):
    """Any feasible spec generates a structurally valid dataset."""
    spec = SyntheticSpec(
        name="prop",
        n_rows=n_rows,
        n_attributes=6,
        n_classes=n_classes,
        arity=arity,
        pattern_attributes=3,
        combos_per_class=2,
        single_attributes=1,
        seed=seed,
    )
    dataset = generate(spec)
    assert dataset.n_rows == n_rows
    assert dataset.rows.min() >= 0
    assert dataset.rows.max() < arity
    assert set(np.unique(dataset.labels)).issubset(set(range(n_classes)))
