"""Exception hierarchy shared across the package.

Statement-level errors (ParseError, BindError, ConstraintViolation) abort the
enclosing transaction, never the whole block.  Round-level errors
(OutOfOrderAction, DuplicateRound) indicate a driver bug or a misbehaving
orderer and are raised to the caller.
"""


class EffectLedgerError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EffectLedgerError):
    """SQL text could not be tokenized or parsed."""


class BindError(EffectLedgerError):
    """Statement references an unknown table/column or mistypes a value."""


class ConstraintViolation(EffectLedgerError):
    """Primary-key conflict or value outside its column domain."""


class SchemaMismatch(EffectLedgerError):
    """Snapshot restore attempted against an incompatible table schema."""


class EngineFailure(EffectLedgerError):
    """The local execution engine is unavailable."""


class OutOfOrderAction(EffectLedgerError):
    """Action skips ahead of the next expected round."""


class DuplicateRound(EffectLedgerError):
    """Action carries a round that was already committed."""


class ChainGap(EffectLedgerError):
    """Ledger block ids are not gapless from 1."""


class CorruptLedgerFile(EffectLedgerError):
    """Ledger file bytes do not parse as a sequence of blocks."""

    def __init__(self, message: str, block_id: int):
        super().__init__(message)
        self.block_id = block_id


class HistoryUnavailable(EffectLedgerError):
    """Recovery needs ledger blocks or buffered actions that are missing."""


class VerifierUnavailable(EffectLedgerError):
    """The process that verifies block signatures is gone."""


class InvalidKey(EffectLedgerError):
    """Signature check against a key that is not registered."""


class ConfigError(EffectLedgerError):
    """Network or workload configuration is malformed."""
