"""Goldilocks-64 finite field arithmetic (scalar, vectorized, polynomials)."""

from .goldilocks import (
    GENERATOR,
    MODULUS,
    TWO_ADICITY,
    Fp,
    add,
    batch_inv,
    inv,
    mul,
    neg,
    root_of_unity,
    sub,
)
from .poly import Polynomial, interpolate, interpolate_eval
from . import vector

__all__ = [
    "GENERATOR",
    "MODULUS",
    "TWO_ADICITY",
    "Fp",
    "add",
    "batch_inv",
    "inv",
    "mul",
    "neg",
    "root_of_unity",
    "sub",
    "Polynomial",
    "interpolate",
    "interpolate_eval",
    "vector",
]
