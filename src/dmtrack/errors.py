"""Exception types shared across the dmtrack package."""


class DmtrackError(Exception):
    """Base class for package-specific failures."""


class ConfigError(DmtrackError):
    """Invalid configuration: bad graph, noise schedule, or experiment file."""


class SolverFailure(DmtrackError):
    """An iterative solver exhausted its iteration budget or produced non-finite state.

    `trials` holds the positions, within the batch of trials being solved,
    of the trials that failed.
    """

    def __init__(self, message, trials=()):
        super().__init__(message)
        self.trials = list(trials)


class InfeasibleProblemError(DmtrackError):
    """The coupling constraint cannot be satisfied within the local box sets."""


class InadmissibleDecayError(DmtrackError):
    """The privacy certificate does not cover the setup; the message is its reason."""
