"""Exception types shared across the package."""


class CocycleForgeError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(CocycleForgeError, ValueError):
    """Operands live on Euclidean spaces of different dimensions."""


class DegreeCapExceededError(CocycleForgeError, ValueError):
    """A composed word's polynomial degree exceeded the configured cap.

    Exact arithmetic cost explodes with word length, so overruns fail
    loudly instead of being truncated.
    """

    def __init__(self, label, degree, cap):
        self.label = label
        self.degree = degree
        self.cap = cap
        super().__init__(
            f"word {label!r} would reach degree {degree}, above the cap {cap}"
        )


class ValueTooLargeError(CocycleForgeError, ValueError):
    """An exact value has more decimal digits than Python will print.

    Python caps int-to-str conversion (4,300 digits by default); a report
    value past that cap is refused by name rather than printed.
    """


class NotClosedError(CocycleForgeError, ValueError):
    """A form that must be closed (d = 0) is not; signals invalid input
    or an internal bug in the staircase."""


class NotACycleError(CocycleForgeError, ValueError):
    """A chain used where a cycle (zero boundary) is required."""


class InvarianceError(CocycleForgeError, ValueError):
    """A group element fails to preserve a form it is required to fix."""


class ScenarioError(CocycleForgeError, ValueError):
    """A scenario file is unreadable, schema-invalid, or inconsistent."""
