"""Projection-free augmented Lagrangian solver built on weak proximal oracles.

The package root exports what building and solving a problem needs; kernels,
step-size formulas, harness builders and certificates live in the submodules.
"""

from .model import LinearMap, PrimalPoint, ProblemSpec, SmoothTerm
from .oracles import (
    BoxIndicator,
    DiagOnesIndicator,
    L1BallIndicator,
    NuclearBallIndicator,
    NuclearNormReg,
    OracleError,
    PolytopeIndicator,
    PolytopeState,
    ProductComponent,
    SimplexIndicator,
    SpectrahedronIndicator,
    WpoComponent,
    ZeroReg,
)
from .solver import SolverConfig, SolverError, iterate, run

__version__ = "0.1.0"
