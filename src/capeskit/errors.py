"""The toolkit's one exception type.

CapeskitError covers everything caused by bad input (files, configs,
incompatible grids, outputs that cannot be written); the CLI maps it to
exit code 2. Anything else that escapes is an internal failure and maps to
exit code 1. It subclasses ValueError, so validators that raise it still
raise a ValueError.
"""


class CapeskitError(ValueError):
    """A user/input error."""
