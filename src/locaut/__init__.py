"""Exact-arithmetic toolkit for local automorphism questions.

Everything here computes over Q(i): no floats, no tolerances.  The three
settings covered are linear preservers on sl_n, semidirect Leibniz algebras
sl_n + irreducible module, and filiform nilpotent Lie algebras.
"""

from .classify import classify_mn, classify_sln, pointwise_witness
from .exact import GaussianRational, Polynomial, format_scalar, parse_scalar
from .filiform import filiform_local_witness, model_filiform, counterexample_demo
from .leibniz import (
    BlockMap,
    build_module,
    build_semidirect,
    decide_local_aut,
    extend_automorphism,
)
from .linalg import Matrix
from .sln import CanonicalShape, MnModel, SlnModel

__all__ = [
    "BlockMap",
    "CanonicalShape",
    "GaussianRational",
    "Matrix",
    "MnModel",
    "Polynomial",
    "SlnModel",
    "build_module",
    "build_semidirect",
    "classify_mn",
    "classify_sln",
    "decide_local_aut",
    "extend_automorphism",
    "filiform_local_witness",
    "format_scalar",
    "model_filiform",
    "parse_scalar",
    "pointwise_witness",
    "counterexample_demo",
]
