"""The common base of the package's own errors.

Every error class the package raises for malformed input or a
mathematical obstruction derives from DomainError next to its usual base
(ValueError or ExprError), so a caller can tell them from a programming
error with one except clause; the command line reports them with exit
code 3.  This module imports nothing, so naming the base loads no other
part of the package.
"""


class DomainError(Exception):
    """Malformed input or a mathematical obstruction, not a bug."""
