"""Unit tests for repro.datasets.transactions."""

import numpy as np
import pytest

from repro.datasets import ItemCatalog, TransactionDataset


class TestItemCatalog:
    def test_contiguous_item_numbering(self, tiny_dataset):
        catalog = ItemCatalog.from_dataset(tiny_dataset)
        assert catalog.n_items == tiny_dataset.n_items
        assert catalog.item_id(0, 0) == 0
        assert catalog.item_id(1, 0) == tiny_dataset.attributes[0].arity

    def test_attribute_of_inverts_item_id(self, tiny_dataset):
        catalog = ItemCatalog.from_dataset(tiny_dataset)
        for attr_index, attribute in enumerate(tiny_dataset.attributes):
            for value_index in range(attribute.arity):
                item = catalog.item_id(attr_index, value_index)
                assert catalog.attribute_of(item) == attr_index

    def test_describe_renders_names(self, tiny_dataset):
        catalog = ItemCatalog.from_dataset(tiny_dataset)
        text = catalog.describe([0])
        assert text.startswith("{outlook=")


class TestTransactionDataset:
    def test_one_item_per_attribute(self, tiny_dataset, tiny_transactions):
        for transaction in tiny_transactions.transactions:
            assert len(transaction) == tiny_dataset.n_attributes
            # exactly one item per attribute block
            catalog = tiny_transactions.catalog
            attributes = [catalog.attribute_of(i) for i in transaction]
            assert sorted(attributes) == list(range(tiny_dataset.n_attributes))

    def test_transactions_sorted(self, tiny_transactions):
        for transaction in tiny_transactions.transactions:
            assert list(transaction) == sorted(transaction)

    def test_binary_matrix_row_sums(self, tiny_dataset, tiny_transactions):
        matrix = tiny_transactions.to_binary_matrix()
        assert matrix.shape == (8, tiny_dataset.n_items)
        assert (matrix.sum(axis=1) == tiny_dataset.n_attributes).all()

    def test_class_partition_covers_everything(self, tiny_transactions):
        partition = tiny_transactions.class_partition()
        total = sum(len(ts) for ts in partition.values())
        assert total == tiny_transactions.n_rows

    def test_support_count_matches_covers(self, tiny_transactions):
        pattern = tiny_transactions.transactions[0][:2]
        count = tiny_transactions.support_count(pattern)
        assert count == int(tiny_transactions.covers(pattern).sum())
        assert count >= 1  # its own transaction contains it

    def test_class_support_counts_sum(self, tiny_transactions):
        pattern = (tiny_transactions.transactions[0][0],)
        per_class = tiny_transactions.class_support_counts(pattern)
        assert per_class.sum() == tiny_transactions.support_count(pattern)

    def test_subset_keeps_item_space(self, tiny_transactions):
        subset = tiny_transactions.subset([0, 1])
        assert subset.n_items == tiny_transactions.n_items
        assert subset.n_classes == tiny_transactions.n_classes
        assert subset.n_rows == 2

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError, match="align"):
            TransactionDataset([(0,)], [0, 1], n_items=1)

    def test_item_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            TransactionDataset([(5,)], [0], n_items=2)

    def test_label_at_or_above_n_classes_rejected(self):
        # Unchecked, the label fails late and differently in each layer:
        # support_count counts the row, contingency tables hit a broadcast
        # error and class_partition a KeyError.
        with pytest.raises(ValueError, match=r"label 2 is outside \[0, 2\)"):
            TransactionDataset(
                [(0,), (1,), (0, 1)], [0, 1, 2], n_items=2, n_classes=2
            )

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match=r"label -1 is outside \[0, 2\)"):
            TransactionDataset([(0,), (1,), (0, 1)], [0, -1, 1], n_items=2)

    def test_empty_pattern_covers_all(self, tiny_transactions):
        assert tiny_transactions.covers(()).all()
