"""Exception types shared across the package."""


class GeoAwareError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(GeoAwareError):
    """Operand shapes violate an operation's contract."""


class NumericError(GeoAwareError):
    """Non-finite values where finiteness is checked: a ``Tensor`` built from
    outside data, a training loss before ``backward``, or a gradient in
    ``adamw_step``.  Ops themselves do not check their results."""


class StateError(GeoAwareError):
    """An object was used in an invalid state (e.g. missing gradients)."""


class ConfigError(GeoAwareError):
    """Invalid or internally inconsistent configuration."""


class ConfigMismatchError(ConfigError):
    """A checkpoint disagrees with the configuration it is loaded under."""


class VocabularyError(GeoAwareError):
    """Instruction outside the closed task vocabulary."""


class GenerationError(GeoAwareError):
    """Scene or dataset generation failed."""


class TaskError(GeoAwareError):
    """The scripted expert cannot make progress on a task."""


class CameraError(GeoAwareError):
    """Degenerate camera geometry."""


class InputError(GeoAwareError):
    """Invalid runtime input (a malformed or non-finite action, an out-of-range label)."""


class FormatError(GeoAwareError):
    """Malformed checkpoint, dataset, or report file."""


class SchemaError(GeoAwareError):
    """Report schema version is not understood."""


class NumericAbort(GeoAwareError):
    """Training aborted because a loss or a gradient became non-finite;
    ``cause`` is the message of the ``NumericError`` that stopped it."""

    def __init__(self, step, param_norms, cause="non-finite loss"):
        self.step = step
        self.param_norms = dict(param_norms)
        summary = ", ".join(f"{k}={v:.3e}" for k, v in list(param_norms.items())[:6])
        super().__init__(f"{cause} at step {step} (param norms: {summary}, ...)")
