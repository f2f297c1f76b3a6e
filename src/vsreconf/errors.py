"""Exception hierarchy shared by all solver modules."""


class VsreconfError(Exception):
    """Base class for all library errors."""


class InputError(VsreconfError):
    """Malformed input: bad vertex ids, bad file syntax, states touching
    terminals, and similar caller mistakes."""


class InvalidInstanceError(InputError):
    """A reconfiguration instance violating a construction invariant
    (adjacent terminals, non-separator endpoint states, size mismatch)."""


class ContractViolationError(VsreconfError):
    """A precondition stated by an operation's contract does not hold
    (e.g. a TJ sequence fed to the TAR interleaving has two consecutive
    states that are not one jump apart)."""


class NotApplicableError(VsreconfError):
    """A specialized solver was asked to handle a graph outside its class."""


class ResourceLimitError(VsreconfError):
    """A configurable exploration/enumeration cap was exceeded.  Distinct
    from a negative answer: the question remains undecided."""
