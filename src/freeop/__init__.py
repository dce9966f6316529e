"""Free products of binary operads: dimensions, explicit bases,
shuffle-operad rewriting, and series-parallel network counting."""

from .dims import (
    OperadDims,
    DimTable,
    builtin_operad,
    explicit_operad,
    free_product_dims,
    symbolic_dims,
    parse_operad_config,
)
from .polynomials import MultiPoly
from . import trees, shuffle, spnet

__version__ = "0.1.0"

__all__ = [
    "OperadDims",
    "DimTable",
    "builtin_operad",
    "explicit_operad",
    "free_product_dims",
    "symbolic_dims",
    "parse_operad_config",
    "MultiPoly",
    "trees",
    "shuffle",
    "spnet",
]
