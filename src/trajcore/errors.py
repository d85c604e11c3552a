"""Exception hierarchy shared across the package."""

# the least int of more than 4,300 digits, which Python will not print by default
UNPRINTABLE = 10**4300


class TrajcoreError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TrajcoreError):
    """An object violates one of its structural invariants."""


class RowSumError(ValidationError):
    """A probability row does not sum to one within tolerance."""

    def __init__(self, what, row, total, tol):
        self.what = what
        self.row = row
        self.total = total
        self.tol = tol
        super().__init__(
            f"{what} row {row} sums to {total!r}, expected 1 within {tol}"
        )


class EmptyGoalError(ValidationError):
    """The goal set is empty."""


class HorizonError(ValidationError):
    """The horizon is not an integer from 1 to 2**63 - 1; raised as a model is built."""


class DimensionMismatch(ValidationError):
    """Two objects that must share dimensions do not."""


class ConfigError(ValidationError):
    """An environment configuration is inconsistent or unsolvable."""


class UnmappedSymbol(TrajcoreError):
    """An abstraction was applied to a pair outside its mapping."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"abstraction has no entry for pair {pair!r}")


class EmptySuccessSet(TrajcoreError):
    """A core was requested over zero successful trajectories."""


class GuardError(TrajcoreError):
    """A combinatorial search exceeded its configured budget."""


class ExplosionGuard(GuardError):
    """Success enumeration, or a support graph, has more nodes than the budget allows.

    ``needed`` is the node count of the full search, or None if not counted;
    the message then gives a lower bound, as for a count past 4,300 digits.
    """

    def __init__(self, budget, visited, needed):
        self.budget = budget
        self.visited = visited
        self.needed = needed
        if needed is None:
            needed = f"more than {max(budget, 0)}"
        elif needed >= UNPRINTABLE:
            needed = "at least 10**4300"
        super().__init__(
            f"search exceeded node budget {budget} "
            f"(visited {visited} nodes; the full search needs {needed}); "
            f"raise the budget explicitly to proceed"
        )


class BudgetExceeded(GuardError):
    """Common-subsequence search visited more sequences than the budget."""

    def __init__(self, budget, visited):
        self.budget = budget
        self.visited = visited
        super().__init__(
            f"common-subsequence search exceeded budget {budget} "
            f"(visited {visited} common subsequences); "
            f"raise the budget explicitly to proceed"
        )


class SymbolLimitExceeded(GuardError):
    """A symbol table was asked for more symbols than there are Unicode code points."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(
            f"a symbol table holds at most {limit} distinct symbols, one per Unicode code point"
        )


class ConsistencyError(TrajcoreError):
    """Two results that must agree do not: a defect in the package, not bad input."""


class OracleScaleError(TrajcoreError):
    """The brute-force oracle was invoked outside its supported scale."""


class ParseError(TrajcoreError):
    """A file could not be parsed into the expected schema."""

    def __init__(self, path, detail):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")


class OutputError(TrajcoreError):
    """A file could not be written."""

    def __init__(self, path, detail):
        self.path = path
        super().__init__(f"{path}: {detail}")
