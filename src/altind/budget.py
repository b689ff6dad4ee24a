"""Expansion budgets shared by the exhaustive search cores."""

DEFAULT_EXPANSIONS = 100_000_000


class BudgetExceededError(RuntimeError):
    """Raised when a computation exceeds its node-expansion budget."""


class Budget:
    """Counts search expansions and aborts once a fixed limit is passed.

    Exceeding the limit is always an explicit error, never a silent
    approximation.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_EXPANSIONS):
        if limit <= 0:
            raise ValueError("expansion budget must be positive")
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(
                f"instance too large: expansion budget of {self.limit} exhausted"
            )


def ensure_budget(budget: "Budget | None") -> Budget:
    """Return ``budget`` unchanged, or a fresh default one."""
    return budget if budget is not None else Budget()
