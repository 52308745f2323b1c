"""Exception types shared across the library."""

from __future__ import annotations


class AggChoiceError(Exception):
    """Base class for all library errors."""


class InvalidProbability(AggChoiceError):
    """A probability table fails validation (negative mass or bad total)."""


class GroundMismatch(AggChoiceError):
    """A preference distribution is defined on the wrong ground set."""


class ItemNotInMenu(AggChoiceError):
    """A choice probability was requested for an item outside the menu."""


class MissingLambdaForMenu(AggChoiceError):
    """A composition distribution has no entry for a required menu."""


class InvalidTuple(AggChoiceError):
    """A composition tuple is inconsistent with the menu or correspondence."""


class AggregateNotInMenu(AggChoiceError):
    """A menu-effect family routes a menu to an aggregate it does not contain."""


class DomainClosureViolated(AggChoiceError):
    """The choice domain lacks the atomic menu needed for a monotonicity pair."""


class IncompleteDomain(AggChoiceError):
    """An operation requires the full atomic domain but menus are missing."""


class TooLarge(AggChoiceError):
    """The instance exceeds the documented enumeration caps."""


class DomainTooLarge(TooLarge):
    """The aggregate set is too large for exact order enumeration."""


class AxiomViolated(AggChoiceError):
    """Input data fails an axiom required by the requested construction."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class VariantUnavailable(AggChoiceError):
    """The requested rationalization variant does not apply to this space."""


class NotRURational(AggChoiceError):
    """The operation requires data inside the RU polytope."""


class NotMenuIndependent(AggChoiceError):
    """The composition distribution admits no single unconditional joint."""


class MissingUtility(AggChoiceError):
    """A utility value is required for an id that has none."""


class NotIdentified(AggChoiceError):
    """The menu graph does not identify all utilities against the base."""


class NoConvergence(AggChoiceError):
    """An iterative solver hit its iteration cap before converging."""


class VerificationBug(RuntimeError):
    """Internal consistency check failed; indicates a library bug."""
