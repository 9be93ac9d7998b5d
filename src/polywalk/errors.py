"""Exception taxonomy shared across the package.

Every failure the library reports deliberately derives from
:class:`PolywalkError`, so callers (and the CLI) can map whole families of
failures to a response: input problems, numeric walk failures that are fixed
by redrawing the random objectives, and enumeration caps.
"""

from __future__ import annotations


class PolywalkError(Exception):
    """Base class for all package-specific failures."""


# --- dense kernel ---------------------------------------------------------


class ZeroVector(PolywalkError):
    """Normalization was asked for a vector with vanishing norm."""


class Singular(PolywalkError):
    """Elimination hit a pivot below the singularity floor."""


class NonIntegerEntry(PolywalkError):
    """Exact integer matrix built from data that is not integer-valued."""


# --- polytope geometry ----------------------------------------------------


class Infeasible(PolywalkError):
    """A point violates at least one inequality; the message names the row."""


class NotAVertex(PolywalkError):
    """A point lacks n linearly independent tight rows."""


class Unbounded(PolywalkError):
    """A ray from a vertex never hits another inequality."""


class CapExceeded(PolywalkError):
    """A combinatorial enumeration would exceed its configured cap."""


class Disconnected(PolywalkError):
    """Breadth-first search found no route between the two vertices."""


# --- flatness / sub-determinants ------------------------------------------


class DependentVectors(PolywalkError):
    """The supplied vectors are linearly dependent."""


class NotOrthogonal(PolywalkError):
    """The supplied matrix is not orthogonal within tolerance."""


# --- shadow walk ----------------------------------------------------------


class WalkFailure(PolywalkError):
    """Numeric failure during a walk; redrawing the objectives usually fixes it."""


class LeftwardEdge(WalkFailure):
    """An improving edge's projected run is at most ``SLOPE_TOL``: leftward or
    vertical."""


class NonMonotoneSlopes(WalkFailure):
    """Recorded slopes failed to decrease strictly."""


class UnboundedShadow(WalkFailure):
    """The selected edge is an unbounded ray (no entering row)."""


class StalledWalk(WalkFailure):
    """No improving edge exists but the target vertex was not reached."""


class InfeasibleStep(WalkFailure):
    """A pivot produced a point outside the polytope."""


class StepLimit(WalkFailure):
    """The walk exceeded its step budget."""


class RetriesExhausted(PolywalkError):
    """All resampling attempts failed.

    Carries ``reasons`` (one failure name per attempt) and ``path``, a
    failed-status path object suitable for serialization.
    """

    def __init__(self, message: str, reasons: list[str], path):
        super().__init__(message)
        self.reasons = reasons
        self.path = path


# --- instance files and generators ----------------------------------------


class ParseError(PolywalkError):
    """The instance file is not valid JSON or contains non-finite numbers."""


class SchemaError(PolywalkError):
    """The instance file misses a field or a field has the wrong shape."""


class InfeasibleTotals(PolywalkError):
    """Supplies and demands kept disagreeing after many redraws."""


class UnboundedSample(PolywalkError):
    """Random instance sampling kept producing unbounded polytopes."""


# --- experiments -----------------------------------------------------------


class MissingDelta(CapExceeded):
    """The basis enumeration cap refuses a bound report's flatness."""
