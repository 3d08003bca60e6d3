"""Numerical toolkit for limit-cycle bifurcation from two-saddle loops
of quadratic Hamiltonian systems: Abelian integrals, Picard-Fuchs
solutions, Melnikov functions, centroid curves, and direct flow
simulation for cross-validation.
"""
from .model import (
    Annulus,
    CriticalData,
    Family,
    HamiltonianSpec,
    MelnikovCoeffs,
    PerturbationSpec,
    critical_data,
)
from .ovals import OvalSlice, SectionSegment, section_segment, slice_oval

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "CriticalData",
    "Family",
    "HamiltonianSpec",
    "MelnikovCoeffs",
    "PerturbationSpec",
    "critical_data",
    "OvalSlice",
    "SectionSegment",
    "section_segment",
    "slice_oval",
    "__version__",
]
