"""Dressing transformations of second-quantized Hamiltonians on a finite
momentum lattice, with a truncated Fock-space numerical oracle."""

__version__ = "0.1.0"

from .algebra import (
    OperatorSeries,
    canonicalize,
    classify,
    commutator,
    dagger,
    normal_order_product,
)
from .dressing import DressingResult, ZeroDenominatorError, dress
from .modes import FieldSpecies, LatticeSpec, ModeIndex, ModeSystem
from .models import ModelSpec, build_model
from .numerics import FockBasis

__all__ = [
    "OperatorSeries",
    "canonicalize",
    "classify",
    "commutator",
    "dagger",
    "normal_order_product",
    "DressingResult",
    "ZeroDenominatorError",
    "dress",
    "FieldSpecies",
    "LatticeSpec",
    "ModeIndex",
    "ModeSystem",
    "ModelSpec",
    "build_model",
    "FockBasis",
    "__version__",
]
