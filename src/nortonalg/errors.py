"""Shared error types, the default budgets, the family kinds'
parameter names and the text of a size: what the CLI reads before it loads
numpy or any other layer."""

from __future__ import annotations

DEFAULT_EVAL_BUDGET = 10**7  # of nonassoc and idempotents, unless --budget or NORTON_BUDGET
DEFAULT_AUTOCHECK_BUDGET = 10**9  # of autocheck's samples (autos.sample_price), likewise

# kind: parameter names in key order; a family's key is (kind, *parameters),
# and families.KINDS pairs each kind with its constructor
KIND_PARAMETERS = {
    "hamming": ("n", "e"),
    "hypercube": ("n",),
    "halved_cube": ("n",),
    "folded_cube": ("n",),
    "folded_half_cube": ("n",),
    "bilinear": ("q", "d", "e"),
}


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration or evaluation would exceed its configured budget."""


def size_text(count: int) -> str:
    """count in decimal, or past 2^64 as about 2^k by its bit length (str refuses 4300 digits)."""
    return str(count) if count < 2**64 else f"about 2^{count.bit_length() - 1}"
