"""Shared error types and the default evaluation budget."""

from __future__ import annotations

DEFAULT_EVAL_BUDGET = 10**7  # of nonassoc and idempotents, unless --budget or NORTON_BUDGET


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration or evaluation would exceed its configured budget."""
