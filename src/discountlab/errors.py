"""Exception hierarchy shared by all discountlab modules."""


class DiscountLabError(Exception):
    """Base class for every error raised by this package.

    ``.output_dir`` is the output directory that a rejected configuration
    document names, when ``parse_config`` read one.
    """

    output_dir = None


class BadDimension(DiscountLabError):
    """Spatial dimension outside the supported range {1, 2}."""


class BadResolution(DiscountLabError):
    """Grid resolution too coarse (fewer than 2 points per dimension)."""


class EmptySampleSet(DiscountLabError):
    """A sampling-based estimate was requested with no sample points."""


class MissingRadius(DiscountLabError):
    """A coercivity table lookup fell outside the stored radii."""


class CouplingOutsideCone(DiscountLabError):
    """A coupling covector violates the admissible sign cone of its mode."""


class MissingCost(DiscountLabError):
    """No finite running cost is available for a requested control."""


class NoConvergence(DiscountLabError):
    """An iterative solve exhausted its iteration budget.

    The partial diagnostics are attached as ``.diagnostics`` when available.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class NotASubsolution(DiscountLabError):
    """A field offered as a subsolution has a positive residual somewhere."""


class NotASupersolution(DiscountLabError):
    """A field offered as a supersolution has a negative residual somewhere."""


class SingularSystem(DiscountLabError):
    """A linear system that is provably solvable failed to solve.

    This cannot happen for well-formed systems (the assembled operator is a
    strictly diagonally dominant M-matrix) and therefore signals corrupted
    data rather than an expected numerical condition.
    """


class NumericalBreakdown(DiscountLabError):
    """The simplex kernel could not certify progress at tolerance."""


class UnboundedLP(DiscountLabError):
    """A linear program is unbounded; ``.ray`` carries an improving ray."""

    def __init__(self, message, ray=None):
        super().__init__(message)
        self.ray = ray


class EnumerationTooLarge(DiscountLabError):
    """Exhaustive basis enumeration would exceed its basis budget."""


class InfeasibleLP(DiscountLabError):
    """A linear program expected to be feasible was certified infeasible."""


class DivergentSweep(DiscountLabError):
    """A vanishing-discount ladder was flagged divergent and cannot be reused."""


class ParseError(DiscountLabError):
    """Malformed experiment configuration text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownKey(DiscountLabError):
    """An experiment configuration used a key this package does not define."""


class BadValue(DiscountLabError):
    """An experiment configuration value failed validation."""
