"""Exception hierarchy.

Everything raised on purpose by this package derives from SalypathError so
callers can catch one type at the boundary (the CLI does exactly that).
"""


class SalypathError(Exception):
    """Base class for all errors raised intentionally by salypath."""


class DimensionError(SalypathError, ValueError):
    """Array rank/extent mismatch. Messages name the offending axis."""


class ConfigError(SalypathError, ValueError):
    """Invalid configuration value caught at construction time."""


class ContractError(SalypathError, ValueError):
    """A call-time precondition was violated (empty inputs, non-scalar loss,
    zero-variance map handed to an evaluation metric, ...)."""


class NumericError(SalypathError, ArithmeticError):
    """Non-finite values where finite ones are required."""


class CheckpointError(SalypathError, ValueError):
    """Malformed checkpoint file or checkpoint/model mismatch."""


class ManifestError(SalypathError, ValueError):
    """Dataset manifest or referenced asset failed to load or validate, or
    a JSON document (a manifest, a ``train --config`` file) failed to load."""


class TrainingDiverged(SalypathError, ArithmeticError):
    """Loss or gradient went non-finite during training. Carries the report
    of the epochs that finished before the abort."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
