"""Exception types shared across the package."""


class M2danError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(M2danError):
    """Operands have incompatible shapes."""


class InvalidShape(M2danError):
    """A shape has non-positive or otherwise illegal dimensions."""


class InvalidAxis(M2danError):
    """An axis index is out of range or repeated."""


class DomainError(M2danError):
    """A value is outside an operation's mathematical domain (e.g. log of <= 0)."""


class NonFiniteInput(M2danError):
    """An input contains NaN or infinity where finite values are required."""


class NotScalar(M2danError):
    """backward() was called on a tensor that is not shape [1]."""


class UnsupportedKernel(M2danError):
    """Convolution kernel size is not an odd square."""


class InvalidSpec(M2danError):
    """A model / data / hyperparameter specification is malformed."""


class NotOneHot(M2danError):
    """Label rows are not exact one-hot vectors."""


class MissingGradient(M2danError):
    """A parameter reached the optimizer without a gradient buffer."""


class EmptyInput(M2danError):
    """A metric or a batch stream received zero samples."""


class DegenerateLabels(M2danError):
    """AUC is undefined: only one class is present."""


class MissingSource(M2danError):
    """A dataset directory has no 'source' domain."""


class MalformedPgm(M2danError):
    """A PGM file is not 8-bit binary (P5) or is structurally broken."""


class EmptyClassDir(M2danError):
    """A labeled split is missing samples for one of its classes."""


class IndivisibleBatch(M2danError):
    """batch_size is not divisible by the number of domains."""


class CorruptFile(M2danError):
    """A checkpoint file is truncated or has a bad magic."""


class VersionMismatch(M2danError):
    """A checkpoint was written with an unsupported format version."""


class SpecMismatch(M2danError):
    """Checkpoint parameters do not match the model being loaded."""


class MalformedCsv(M2danError):
    """A history CSV is empty or has an unexpected column layout."""


class ConfigError(M2danError):
    """An experiment config file or override is invalid."""


class NumericError(M2danError):
    """Training produced a non-finite loss."""
