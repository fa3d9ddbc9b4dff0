"""Exception types shared across the package."""


class ChainriskError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidArgument(ChainriskError):
    """An argument violates an operation's contract."""


class InvalidInput(ChainriskError):
    """Input data is malformed: non-finite values, bad schema, impossible request.

    When a row breaks a per-row rule, `row` is its index in its input table
    (for a graph, `table` says which: "nodes" or "edges"), so a reader can
    name its line.
    """

    def __init__(self, message, row=None, table=None):
        super().__init__(message)
        self.row, self.table = row, table


class InvalidConfig(ChainriskError):
    """A configuration file or object failed validation."""


class TrainingDivergence(ChainriskError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class UndefinedMetric(ChainriskError):
    """The metric is undefined for the given inputs (e.g. one class missing)."""


class NoViableConfig(ChainriskError):
    """Every grid-search cell diverged."""


class CheckpointVersionError(ChainriskError):
    """Checkpoint was written by an incompatible format version."""

    def __init__(self, found, expected):
        super().__init__(f"checkpoint format version {found}, expected {expected}")
        self.found = found
        self.expected = expected
