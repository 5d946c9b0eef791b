"""Exception hierarchy shared across the package."""


def int_text(n: int) -> str:
    """n as a message names it: in decimal below 10**100 in size, else by its
    bit length, so that no message formats a number of thousands of digits."""
    return str(n) if abs(n) < 10**100 else f"<{n.bit_length()}-bit number>"


class CarmkitError(Exception):
    """Base class for all library errors."""


class DomainError(CarmkitError, ValueError):
    """An argument is outside an operation's stated domain."""


class CapacityError(CarmkitError):
    """A request exceeds a declared size cap (sieve window, pool, DP table)."""


class UnfactoredError(CarmkitError):
    """Factoring budget ran out; carries the unfactored cofactor and names the budget."""

    def __init__(self, cofactor: int, budget: int):
        self.cofactor = cofactor
        super().__init__(
            f"Brent-rho budget of {budget} iterations exhausted; "
            f"unfactored cofactor {int_text(cofactor)}")


class ConstructionError(CarmkitError):
    """A construction stage produced nothing usable."""


class InfeasibleError(ConstructionError):
    """The requested residue target cannot exist for these parameters."""


class OrderingError(DomainError):
    """Quantities violate a required strict ordering; message names the side."""


class AssemblyError(CarmkitError):
    """A candidate product failed certification; carries the failed check."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        super().__init__(f"certificate check failed: {check}" + (f" ({detail})" if detail else ""))
