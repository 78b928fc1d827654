"""Exception hierarchy shared across the reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A protocol or cluster configuration is invalid (e.g. n != 3f + 2c + 1)."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad share, bad signature, bad proof)."""


class InvalidSignatureShare(CryptoError):
    """A threshold signature share failed robust verification."""


class InvalidSignature(CryptoError):
    """A combined or plain signature failed verification."""


class InvalidProof(CryptoError):
    """A Merkle or execution proof failed verification."""


class ServiceError(ReproError):
    """The replicated service rejected an operation."""


class EVMError(ServiceError):
    """The EVM interpreter rejected or aborted a transaction."""


class OutOfGas(EVMError):
    """Transaction execution exceeded its gas limit."""


class InvalidTransaction(ServiceError):
    """A ledger transaction failed static validation."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class NetworkError(SimulationError):
    """A network operation referenced an unknown node or an invalid link."""
