"""Exact Norton algebras of Hamming-type graph families.

Spectra via linear characters, closed-form Norton products verified against a
projection oracle, idempotent classification, automorphism actions, and
associative-spectrum counting, all in exact cyclotomic arithmetic.

The public names are imported from their modules on first access (PEP 562),
so importing one module of the package, such as the CLI, loads no other.
"""

from __future__ import annotations

import importlib

_MODULE_OF = {
    "AlgebraVector": "norton",
    "BudgetExceededError": "errors",
    "Cyclotomic": "cyclotomic",
    "classified_idempotents": "norton",
    "closed_form_product": "norton",
    "count_classes_exact": "trees",
    "count_classes_witness": "trees",
    "cyclotomic_polynomial": "roots",
    "eta": "norton",
    "find_identity": "norton",
    "make_family": "families",
    "root_power": "cyclotomic",
    "verify_isomorphism": "norton",
    "verify_oracle_space": "families",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
