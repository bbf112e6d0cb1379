"""Dataset substrate: schemas, transaction encoding and benchmark generators."""

from .schema import Attribute, Dataset
from .sequences import SequenceDataset, SequenceSpec, generate_sequences
from .synthetic import PlantedStructure, SyntheticSpec, generate, plant_structure
from .transactions import ItemCatalog, TransactionDataset
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
    "PlantedStructure",
    "SyntheticSpec",
    "generate",
    "plant_structure",
    "SequenceDataset",
    "SequenceSpec",
    "generate_sequences",
    "load_uci",
    "available_datasets",
    "UCI_SPECS",
    "SCALABILITY_SPECS",
    "UCI_TABLE1_NAMES",
    "SCALABILITY_NAMES",
]
