"""Dataset substrate: schemas, transaction encoding and benchmark generators."""

from .schema import Attribute, Dataset
from .synthetic import PlantedStructure, SyntheticSpec, generate, plant_structure
from .transactions import ItemCatalog, TransactionDataset, item_ids
from .uci import (
    SCALABILITY_NAMES,
    SCALABILITY_SPECS,
    UCI_SPECS,
    UCI_TABLE1_NAMES,
    available_datasets,
    load_uci,
)

__all__ = [
    "Attribute",
    "Dataset",
    "ItemCatalog",
    "TransactionDataset",
    "item_ids",
    "PlantedStructure",
    "SyntheticSpec",
    "generate",
    "plant_structure",
    "load_uci",
    "available_datasets",
    "UCI_SPECS",
    "SCALABILITY_SPECS",
    "UCI_TABLE1_NAMES",
    "SCALABILITY_NAMES",
]
