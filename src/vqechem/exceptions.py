"""Exception types raised across the package, and the checks of values read from outside."""

import operator
import sys
from numbers import Real


class VqeChemError(Exception):
    """Base class for all package errors."""


class ShapeError(VqeChemError):
    """Dimension or index mismatch between objects."""


class UnsupportedElementError(VqeChemError):
    """Integral generation requested for an element outside the built-in basis."""


class SingularGeometryError(VqeChemError):
    """Two nuclei coincide (or nearly so), making the geometry singular."""


class ScfConvergenceError(VqeChemError):
    """SCF failed to converge within the iteration cap."""


class FcidumpError(VqeChemError):
    """Malformed FCIDUMP content."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ActiveSpaceError(VqeChemError):
    """Invalid frozen core: an entry that is not an orbital index, a repeat, an index out of
    range or not doubly occupied, or a core that leaves no active orbital."""


class NonHermitianError(VqeChemError):
    """Operator expected to be Hermitian is not."""


class OptimizerDivergedError(VqeChemError):
    """Objective returned a non-finite value during optimization."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class EigensolverConvergenceError(VqeChemError):
    """Iterative eigensolver failed to reach the residual tolerance."""

    def __init__(self, message, best_energy=None):
        super().__init__(message)
        self.best_energy = best_energy


class FitBracketError(VqeChemError):
    """Curve fitting requested without a bracketed interior minimum."""


class BarrierError(VqeChemError):
    """Reaction path has no interior maximum to locate a barrier."""


class CurveAlignmentError(VqeChemError):
    """Two curves to be compared do not share point labels, or their pointwise
    shifts are not finite."""


class ManifestError(VqeChemError):
    """Scan manifest is malformed or inconsistent."""


def checked_object(doc, known, name: str, error=ManifestError) -> dict:
    """``doc`` if it is a JSON object whose keys are all in ``known``; else ``error``,
    one line naming ``name`` and any unknown keys."""
    if not isinstance(doc, dict):
        raise error(f"{name} must be an object, got {type(doc).__name__}")
    unknown = doc.keys() - set(known)
    if unknown:
        raise error(f"{name} has unknown keys {sorted(unknown, key=str)}")
    return doc


def checked_int(value, name: str, least: int | None = None, error=ShapeError) -> int:
    """``value`` as an int if ``operator.index`` takes it (numpy integers pass, a bool
    does not) and it is at least ``least`` when given; else ``error``, naming ``name``."""
    try:
        value = operator.index(None if isinstance(value, bool) else value)  # None: refused
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {value}")
    return value


def checked_real(value, name: str, error=ShapeError) -> float:
    """``value`` as a float if it is a finite real number (a ``numbers.Real``; a bool
    or a string is not one); else ``error``, naming ``name``."""
    finite = isinstance(value, Real) and abs(value) <= sys.float_info.max  # nan compares False
    if isinstance(value, bool) or not finite:
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)
