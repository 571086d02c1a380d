"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user input: malformed text, bad parameters, dimension mismatches."""


class UnsupportedNormOperation(InputError):
    """The requested operation has no exact closed form for this norm variant."""


class CapacityError(RuntimeError):
    """An enumeration would exceed the configured size limit."""


class CertificateError(RuntimeError):
    """An internal certificate of the projection chain failed: a defect in
    the program, not in the input."""
