"""Exception hierarchy shared by all gse modules.

The CLI maps these onto its exit-code contract: configuration problems
exit 2, physics (stability) problems exit 3, oracle failures exit 5.
"""


class GseError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GseError):
    """Invalid parameter set or CLI/config-file input."""


class ZeroCoupling(GseError):
    """g = 0 requested where the caller did not ask for the decoupled limit."""


class Unstable(GseError):
    """Parameters outside the stability region (lower polariton not real).

    Carries the offending parameters so the CLI can echo them.
    """

    def __init__(self, message, **params):
        super().__init__(message)
        self.params = dict(params)


class DegenerateDenominator(GseError):
    """First-order perturbation theory hit a near-degenerate energy denominator."""


class InvalidQuantumNumbers(GseError):
    """Angular-momentum labels outside their allowed ranges."""


class UnsupportedDoubleOccupancy(GseError):
    """Electron transfer whose direction does not match its Delta N.

    Extraction must lower the electron number and injection raise it;
    the other two pairings would need a doubly occupied site, which the
    model does not hold.
    """


class CutoffNotConverged(GseError):
    """Photon-number truncation did not converge within the allowed cap."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)
