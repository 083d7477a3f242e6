"""Exception types shared across the package."""


class MsetzipError(Exception):
    """Base class for errors raised by this package."""


class FormatError(MsetzipError):
    """Container bytes do not parse: bad magic, version, or field id."""


class TruncationError(MsetzipError):
    """A bit stream ended before a complete value could be read."""


class CorruptStreamError(MsetzipError):
    """Decoded data is structurally impossible for the declared parameters."""


class ModelMismatchError(MsetzipError):
    """Input data is inconsistent with the codec parameters.

    Raised at encode time, and compress then returns no container.  The
    regime's member checks run before anything is coded: a member whose
    length has zero probability under the length model, one longer than
    the depth cap, or one that extends a prefix the end detector already
    considers complete or does not end complete.  A decision whose outcome
    the family gives zero probability is found only when it is coded, so
    mid-stream, with the decisions before it coded.
    """
