"""R1CS arithmetization: sparse matrices, constraint systems, circuit DSL
(the gadget libraries load when a circuit imports them)."""

from .builder import Circuit, LinearCombination, Wire
from .matrices import SparseMatrix
from .system import R1CS, R1CSShape, pad_r1cs

__all__ = [
    "Circuit",
    "LinearCombination",
    "Wire",
    "SparseMatrix",
    "R1CS",
    "R1CSShape",
    "pad_r1cs",
]
