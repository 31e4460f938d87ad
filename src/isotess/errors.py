"""Exception types shared across the package."""

from __future__ import annotations


class GraphError(Exception):
    """Base class for all isotess errors."""


class InputFormatError(GraphError):
    """Malformed interchange record (bad ids, missing fields, bad face rep)."""


class MalformedRotation(GraphError):
    """Rotation lists are not permutations of the incident edges."""


class NonSimple(GraphError):
    """Loop or parallel edge."""


class Disconnected(GraphError):
    """Underlying graph is not connected."""


class NonPositiveLength(GraphError):
    """Edge length is zero or negative."""


class InconsistentFrontier(GraphError):
    """Declared true degree contradicts the visible incident edges."""


class DisconnectedSelection(GraphError):
    """Edge selection does not induce a connected subgraph."""


class FrontierContact(GraphError):
    """Requested quantity depends on data hidden behind the frontier."""


class IndeterminateFaces(GraphError):
    """Subgraph face structure cannot be resolved near the frontier."""


class NotFiniteTessellation(GraphError):
    """Operation requires a finite graph passing the tessellation checks."""


class FamilyMismatch(GraphError):
    """Family block that the graph it describes contradicts."""


class NotStarLikeComplete(GraphError):
    """Subgraph is not star-like and complete."""


class BudgetExceeded(GraphError):
    """Enumeration hit the configured hard cap."""

    def __init__(self, message: str, yielded: int = 0):
        super().__init__(message)
        self.yielded = yielded


class EmptyFrontierFreeRegion(GraphError):
    """No frontier-free data to take suprema / infima over."""


class NegativeCurvatureParams(GraphError):
    """(p, q) with 1 - 2/p - 2/q < 0: no infinite tessellation exists."""


class RadiusTooSmall(GraphError):
    pass


class ParamTooSmall(GraphError):
    pass


class TruncationTooShallow(GraphError):
    """Generated truncation lacks the depth needed for a cross-check."""


class OutOfRange(GraphError):
    pass


class NonPositiveEllMin(GraphError):
    pass
