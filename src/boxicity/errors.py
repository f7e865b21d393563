"""Shared exception types.

Error policy: anything wrong with caller-supplied data (graphs, certificates,
JSON documents, representations that fail a precondition) raises InvalidInput
or a subclass, always with a concrete witness in the message.  Searches that
hit a node or time budget raise BudgetExhausted so that "no" is never silently
conflated with "gave up".
"""


class InvalidInput(ValueError):
    """Input violates a documented precondition or schema."""


class ParseError(InvalidInput):
    """A JSON document whose shape or values do not match its format."""


class CertificateError(InvalidInput):
    """A certificate failed validation; message names the witness."""


class BudgetExhausted(RuntimeError):
    """A search exceeded its node or time budget before finishing."""
