"""Full binary trees as parenthesizations: enumeration, depth sequences,
evaluation under a bilinear product, associative-spectrum counting, and the
double-minus reference operation.

Equality of two parenthesizations of a bilinear product is equality of
multilinear maps, which is decidable on tuples of basis vectors; the exact
counter fingerprints every tree on all basis tuples, while the witness
counter refines the partition with seeded random tuples and reports a lower
bound when pairs stay undistinguished.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import BudgetExceededError
from .families import FamilySpec

DEFAULT_EVAL_BUDGET = 10**7
DEFAULT_MAX_M = 12
DEFAULT_WITNESS_ATTEMPTS = 10_000


class BinaryTree:
    """A full binary tree; leaves are the nodes with no children."""

    __slots__ = ("left", "right", "leaf_count", "depths")

    def __init__(self, left: "BinaryTree | None", right: "BinaryTree | None") -> None:
        if (left is None) != (right is None):
            raise ValueError("a node needs both children; a leaf has neither")
        self.left = left
        self.right = right
        if left is None:
            self.leaf_count = 1
            self.depths = (0,)
        else:
            self.leaf_count = left.leaf_count + right.leaf_count
            self.depths = tuple(d + 1 for d in left.depths + right.depths)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        return self.parenthesization()

    def parenthesization(self, names: list[str] | None = None) -> str:
        leaves = iter(names or [f"z{k}" for k in range(self.leaf_count)])

        def render(t: "BinaryTree") -> str:
            if t.is_leaf:
                return next(leaves)
            return f"({render(t.left)}*{render(t.right)})"

        return render(self)


_LEAF = BinaryTree(None, None)


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def enumerate_trees(m: int, max_m: int = DEFAULT_MAX_M) -> tuple[BinaryTree, ...]:
    """All full binary trees with m+1 leaves, in a deterministic order; subtrees
    are shared between trees, so structural memoization can key on identity."""
    if m < 0:
        raise ValueError(f"tree size must be >= 0, got {m}")
    if m > max_m:
        raise BudgetExceededError(f"tree enumeration capped at m={max_m}, got {m}")
    if m == 0:
        return (_LEAF,)
    out = []
    for k in range(m):
        for left in enumerate_trees(k, max_m):
            for right in enumerate_trees(m - 1 - k, max_m):
                out.append(BinaryTree(left, right))
    if len(out) != catalan(m):
        raise AssertionError("tree enumeration does not match the Catalan count")
    return tuple(out)


def evaluate(t: BinaryTree, product, inputs: list):
    """Evaluate the parenthesization encoded by t over the given leaf inputs."""
    if len(inputs) != t.leaf_count:
        raise ValueError(f"expected {t.leaf_count} inputs, got {len(inputs)}")

    def walk(node: BinaryTree, offset: int):
        if node.is_leaf:
            return inputs[offset]
        left = walk(node.left, offset)
        right = walk(node.right, offset + node.left.leaf_count)
        return product(left, right)

    return walk(t, 0)


def ominus_class(t: BinaryTree) -> tuple[int, ...]:
    """Leaf-depth parities; two trees agree under the double-minus operation
    exactly when these vectors agree."""
    return tuple(d % 2 for d in t.depths)


def double_minus_form(t: BinaryTree) -> tuple[int, ...]:
    """Signed coefficients of the linear form computed by t under a - b := -a - b,
    built structurally (not from the depth formula)."""
    if t.is_leaf:
        return (1,)
    left = double_minus_form(t.left)
    right = double_minus_form(t.right)
    return tuple(-c for c in left + right)


def a000975(m: int) -> int:
    """floor(2^(m+1)/3): double-minus class counts for m >= 1."""
    if m < 1:
        raise ValueError("a000975 count applies for m >= 1 only")
    return (2 ** (m + 1)) // 3


@dataclass(frozen=True)
class SpectrumReport:
    """Associative-spectrum count for one expression length."""

    m: int
    class_count: int
    mode: str  # "exact" or "witness-lower-bound"
    budget_used: int
    seed: int | None = None

    def __post_init__(self):
        if not 1 <= self.class_count <= catalan(self.m):
            raise AssertionError("class count outside 1..Catalan(m)")


def _exact_result_arrays(family: FamilySpec, i: int, m: int, budget: int,
                         max_m: int) -> list[np.ndarray]:
    """Per-tree result vectors over all basis input tuples, encoded as positions
    with dim standing for zero; vectors over the same tuple order are comparable."""
    dim = family.predicted_dimension(i)
    trees = enumerate_trees(m, max_m)
    cost = (dim ** (m + 1)) * len(trees)
    if cost > budget:
        raise BudgetExceededError(
            f"exact mode needs {cost} evaluations (budget {budget}); use witness mode")
    dtype = np.uint8 if dim < 255 else np.uint16
    zero = dim
    table = np.full((dim + 1, dim + 1), zero, dtype=dtype)
    products = family.product_table(i)
    table[:dim, :dim] = np.where(products < 0, zero, products)
    base = np.arange(dim, dtype=dtype)
    memo: dict[int, np.ndarray] = {}

    def arr(t: BinaryTree) -> np.ndarray:
        if t.is_leaf:
            return base
        got = memo.get(id(t))
        if got is None:
            left = arr(t.left)
            right = arr(t.right)
            got = table[left[:, None], right[None, :]].reshape(-1)
            memo[id(t)] = got
        return got

    return [arr(t) for t in trees]


def exact_partition(family: FamilySpec, i: int, m: int,
                    budget: int = DEFAULT_EVAL_BUDGET,
                    max_m: int = DEFAULT_MAX_M) -> list[list[int]]:
    """Partition of the trees of size m into classes with equal multilinear maps."""
    arrays = _exact_result_arrays(family, i, m, budget, max_m)
    groups: dict[bytes, list[int]] = {}
    for idx, arr in enumerate(arrays):
        groups.setdefault(arr.tobytes(), []).append(idx)
    return sorted(groups.values())


def count_classes_exact(family: FamilySpec, i: int, m: int,
                        budget: int = DEFAULT_EVAL_BUDGET,
                        max_m: int = DEFAULT_MAX_M) -> SpectrumReport:
    """Exact associative-spectrum count by fingerprinting every tree on all
    basis tuples (complete by multilinearity)."""
    dim = family.predicted_dimension(i)
    parts = exact_partition(family, i, m, budget, max_m)
    return SpectrumReport(m=m, class_count=len(parts), mode="exact",
                          budget_used=(dim ** (m + 1)) * catalan(m))


def _postfix(t: BinaryTree) -> list[int]:
    # leaf slot index, or -1 for an internal combine
    prog: list[int] = []
    slot = 0

    def walk(node: BinaryTree) -> None:
        nonlocal slot
        if node.is_leaf:
            prog.append(slot)
            slot += 1
            return
        walk(node.left)
        walk(node.right)
        prog.append(-1)

    walk(t)
    return prog


def _run_postfix(prog: list[int], tup: tuple[int, ...], table: list[list[int]]) -> int:
    stack: list[int] = []
    push = stack.append
    for op in prog:
        if op >= 0:
            push(tup[op])
        else:
            b = stack.pop()
            a = stack.pop()
            push(-1 if a < 0 or b < 0 else table[a][b])
    return stack[0]


def count_classes_witness(family: FamilySpec, i: int, m: int, seed: int = 0,
                          attempts: int = DEFAULT_WITNESS_ATTEMPTS,
                          generators: list | None = None,
                          max_m: int = DEFAULT_MAX_M) -> SpectrumReport:
    """Distinguish tree pairs by seeded random basis tuples.  If every pair is
    separated the count equals Catalan(m) and the mode is exact; otherwise the
    refined partition size is reported as a lower bound."""
    trees = enumerate_trees(m, max_m)
    # the table checks its size before the basis is built; list indexing
    # beats numpy scalars here
    table = family.product_table(i).tolist()
    if generators is None:
        gens = list(range(len(table)))
    else:
        pos = family.basis_position(i)
        gens = [pos[g] for g in generators]
    progs = [_postfix(t) for t in trees]
    rng = random.Random(seed)
    classes: list[list[int]] = [list(range(len(trees)))]
    used = 0
    while used < attempts and any(len(c) > 1 for c in classes):
        tup = tuple(gens[rng.randrange(len(gens))] for _ in range(m + 1))
        used += 1
        refined: list[list[int]] = []
        for cls in classes:
            if len(cls) == 1:
                refined.append(cls)
                continue
            buckets: dict[int, list[int]] = {}
            for t_idx in cls:
                buckets.setdefault(_run_postfix(progs[t_idx], tup, table), []).append(t_idx)
            refined.extend(buckets.values())
        classes = refined
    separated = all(len(c) == 1 for c in classes)
    return SpectrumReport(m=m, class_count=len(classes),
                          mode="exact" if separated else "witness-lower-bound",
                          budget_used=used, seed=seed)


def ominus_partition(m: int, max_m: int = DEFAULT_MAX_M) -> list[list[int]]:
    """Trees of size m grouped by leaf-depth parity vector."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, t in enumerate(enumerate_trees(m, max_m)):
        groups.setdefault(ominus_class(t), []).append(idx)
    return sorted(groups.values())


def ominus_equivalence_check(family: FamilySpec, i: int, m: int,
                             budget: int = DEFAULT_EVAL_BUDGET,
                             max_m: int = DEFAULT_MAX_M) -> bool:
    """Whether the exact product partition coincides with the depth-parity
    partition (the product is then equally nonassociative as double minus at m)."""
    return exact_partition(family, i, m, budget, max_m) == ominus_partition(m, max_m)
