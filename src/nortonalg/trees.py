"""Full binary trees as parenthesizations: enumeration, depth sequences,
evaluation under a bilinear product, associative-spectrum counting, and the
double-minus reference operation.

Equality of two parenthesizations of a bilinear product is equality of
multilinear maps, which is decidable on tuples of basis vectors.  In every
family the product of two basis vectors is the basis vector of their sum or
zero, so on a basis tuple all nonzero trees share one value, and a tree is
nonzero exactly when each leaf interval of its internal nodes is live (some
parenthesization of that interval is nonzero).  Both counters compare trees
by their interval sets, as bitmasks, against the live-interval patterns of
input tuples, and check that premise on every tuple they see: the exact
counter on all basis tuples, the witness counter on seeded random tuples,
reporting a lower bound when pairs stay undistinguished.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .cayley import row_keys
from .errors import DEFAULT_EVAL_BUDGET, BudgetExceededError
from .families import FamilySpec

DEFAULT_MAX_M = 12
DEFAULT_WITNESS_ATTEMPTS = 10_000
CHUNK_BYTES = 1 << 20  # working-array size of the vectorized tree classification


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


def _check_tree_size(m: int) -> None:
    if m < 0:
        raise ValueError(f"tree size must be >= 0, got {m}")
    if m > DEFAULT_MAX_M:
        raise BudgetExceededError(f"tree enumeration capped at m={DEFAULT_MAX_M}, got {m}")


@lru_cache(maxsize=None)
def enumerate_trees(m: int) -> tuple[BinaryTree, ...]:
    """All full binary trees with m+1 leaves, in a deterministic order; subtrees
    are shared between trees, so structural memoization can key on identity."""
    _check_tree_size(m)
    if m == 0:
        return (_LEAF,)
    out = []
    for k in range(m):
        for left in enumerate_trees(k):
            for right in enumerate_trees(m - 1 - k):
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


def _intervals(m: int) -> list[tuple[int, int]]:
    """The leaf intervals [a, b) with b - a >= 2 of m+1 leaves, each after the
    intervals it splits into."""
    return [(a, b) for b in range(2, m + 2) for a in range(b - 2, -1, -1)]


def _words(m: int) -> int:
    """uint64 words per interval set: m(m+1)/2 bits."""
    return max(1, (m * (m + 1) // 2 + 63) // 64)


def _set_bit(sets: np.ndarray, a: int, b: int, where) -> None:
    """Add [a, b) to the rows of sets (shape (rows, words)) selected by where."""
    k = (b - 1) * (b - 2) // 2 + a
    sets[:, k // 64] |= np.asarray(where, dtype=np.uint64) << np.uint64(k % 64)


def tree_masks(m: int) -> np.ndarray:
    """Interval sets of the trees with m+1 leaves, in enumerate_trees order: a
    (Catalan(m), words) uint64 array whose row holds the bit of [a, b) when an
    internal node of the tree spans the leaves a..b-1."""
    _check_tree_size(m)
    words = _words(m)

    @lru_cache(maxsize=None)
    def masks(a: int, b: int) -> np.ndarray:
        if b - a == 1:
            return np.zeros((1, words), dtype=np.uint64)
        out = np.concatenate([(masks(a, s)[:, None] | masks(s, b)[None, :]).reshape(-1, words)
                              for s in range(a + 1, b)])
        _set_bit(out, a, b, True)
        return out

    return masks(0, m + 1)


def _live_table(products: np.ndarray) -> np.ndarray:
    """The product table on interval values.  A value is a basis position, or
    dim when no parenthesization of the interval is nonzero; entry [u, v] is
    the position of u*v, dim for a zero product, and dim+1 when u or v is dim."""
    dim = len(products)
    table = np.full((dim + 1, dim + 1), dim + 1, dtype=np.min_scalar_type(dim + 1))
    table[:dim, :dim] = np.where(products < 0, dim, products)
    return table


def _join(table: np.ndarray, halves) -> np.ndarray:
    """Values of one interval from the values of the two halves of each split.

    Every split whose halves are live must give the same entry, one position
    or zero throughout; this is the case when products are determined by the
    sum of their inputs, and then all nonzero trees on the interval share
    that value, so a tree is nonzero exactly when all its intervals are live.
    """
    skip = len(table)
    value = None
    for left, right in halves:
        entry = table[left, right].reshape(-1)
        if value is None:
            value = entry
            continue
        if ((entry != value) & (np.maximum(entry, value) < skip)).any():
            raise AssertionError("the product is not determined by the sum of its "
                                 "inputs: two splits of one interval disagree")
        value = np.minimum(value, entry)
    return np.minimum(value, skip - 1)


def _grid_patterns(table: np.ndarray, m: int) -> np.ndarray:
    """Distinct live-interval sets of all basis tuples of length m+1.  The value
    of an interval depends only on its own inputs, so it is computed once per
    length on the dim^length grid and looked up over the full grid in slices."""
    dim = len(table) - 1
    values = {1: np.arange(dim, dtype=table.dtype)}
    for length in range(2, m + 2):
        values[length] = _join(table, ((values[k][:, None], values[length - k][None, :])
                                       for k in range(1, length)))
    total = dim ** (m + 1)
    words = _words(m)
    step = max(1, CHUNK_BYTES // (8 * words))
    found = []
    for start in range(0, total, step):
        index = np.arange(start, min(start + step, total))
        sets = np.zeros((len(index), words), dtype=np.uint64)
        for b in range(2, m + 2):
            prefix = index // dim ** (m + 1 - b)  # the first b inputs
            for a in range(b - 1):
                _set_bit(sets, a, b, values[b - a][prefix % dim ** (b - a)] < dim)
        found.append(_distinct_rows(sets))
    return _distinct_rows(np.concatenate(found))


def _distinct_rows(sets: np.ndarray) -> np.ndarray:
    """The distinct rows of sets in the order np.unique gives them."""
    if sets.shape[1] == 1:  # plain integers: faster still
        return _sorted_distinct(sets[:, 0])[:, None]
    return _sorted_distinct(row_keys(sets)).view(sets.dtype).reshape(-1, sets.shape[1])


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for a 1-d array, by one sort and a mask of the
    entries that differ from their predecessor."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]  # void keys compare by operator only
    return values[first]


def _tuple_patterns(table: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """Live-interval sets of the given basis tuples (rows of positions)."""
    count, leaves = tuples.shape
    dim = len(table) - 1
    values = {(a, a + 1): tuples[:, a] for a in range(leaves)}
    sets = np.zeros((count, _words(leaves - 1)), dtype=np.uint64)
    for a, b in _intervals(leaves - 1):
        values[a, b] = _join(table, ((values[a, s], values[s, b]) for s in range(a + 1, b)))
        _set_bit(sets, a, b, values[a, b] < dim)
    return sets


def _fingerprints(masks: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Bit p of row t is set when tree t is nonzero under pattern p, that is,
    when its interval set lies inside the pattern; 8 patterns to a byte."""
    outside = ~patterns
    rows = max(1, CHUNK_BYTES // (8 * len(patterns)))
    out = np.empty((len(masks), (len(patterns) + 7) // 8), dtype=np.uint8)
    for start in range(0, len(masks), rows):
        block = masks[start:start + rows]
        inside = np.ones((len(block), len(patterns)), dtype=bool)
        for w in range(masks.shape[1]):
            inside &= (block[:, w, None] & outside[None, :, w]) == 0
        out[start:start + rows] = np.packbits(inside, axis=1)
    return out


def exact_partition(family: FamilySpec, i: int, m: int,
                    budget: int = DEFAULT_EVAL_BUDGET) -> list[list[int]]:
    """Partition of the trees of size m into classes with equal multilinear maps.

    On a basis tuple the nonzero trees share one value, so two trees agree
    there exactly when both or neither of their interval sets lie inside the
    tuple's live pattern; the distinct patterns of all dim^(m+1) tuples decide
    equality by multilinearity."""
    _check_tree_size(m)
    dim = family.predicted_dimension(i)
    cost = (dim ** (m + 1)) * catalan(m)
    if cost > budget:
        raise BudgetExceededError(
            f"exact mode needs {cost} evaluations (budget {budget}); use witness mode")
    patterns = _grid_patterns(_live_table(family.product_table(i)), m)
    groups: dict[bytes, list[int]] = {}
    for idx, key in enumerate(_fingerprints(tree_masks(m), patterns)):
        groups.setdefault(key.tobytes(), []).append(idx)
    return sorted(groups.values())


def count_classes_exact(family: FamilySpec, i: int, m: int,
                        budget: int = DEFAULT_EVAL_BUDGET) -> SpectrumReport:
    """Exact associative-spectrum count from the live patterns of all basis
    tuples (complete by multilinearity); budget_used counts dim^(m+1) tuples
    for each of the Catalan(m) trees."""
    dim = family.predicted_dimension(i)
    parts = exact_partition(family, i, m, budget)
    return SpectrumReport(m=m, class_count=len(parts), mode="exact",
                          budget_used=(dim ** (m + 1)) * catalan(m))


def _refine(labels: np.ndarray, prints: np.ndarray, tuples: int) -> tuple[np.ndarray, int]:
    """Class labels of the trees and their number after the first `tuples`
    columns of prints refine the classes given by labels."""
    cut = prints[:, :(tuples + 7) // 8].copy()
    if tuples % 8:
        cut[:, -1] &= (0xFF << (8 - tuples % 8)) & 0xFF
    keys = np.concatenate([labels.view(np.uint8).reshape(len(labels), -1), cut], axis=1)
    _, refined = np.unique(row_keys(keys), return_inverse=True)
    return refined, int(refined.max()) + 1


def _randrange_block(rng: random.Random, dim: int, count: int) -> np.ndarray:
    """[rng.randrange(dim) for _ in range(count)] as an int64 array, leaving
    rng in the same state.  randrange(dim) takes the top dim.bit_length() bits
    of one 32-bit word and draws again while they are >= dim, so the words are
    drawn in blocks, as many as values are still missing: none is drawn that
    randrange would not consume."""
    bits = dim.bit_length()
    assert bits <= 32, "each draw must fit in one 32-bit word"
    parts = []
    while count:
        words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        values = np.frombuffer(words, dtype="<u4") >> (32 - bits)  # in generation order
        values = values[values < dim]
        parts.append(values)
        count -= len(values)
    return np.concatenate(parts).astype(np.int64)


def count_classes_witness(family: FamilySpec, i: int, m: int, seed: int = 0,
                          attempts: int = DEFAULT_WITNESS_ATTEMPTS) -> SpectrumReport:
    """Distinguish tree pairs by seeded random basis tuples.  If every pair is
    separated the count equals Catalan(m) and the mode is exact; otherwise the
    refined partition size is reported as a lower bound.

    Tuples are drawn in chunks that double from 64 (while the tree-by-tuple
    bits stay near CHUNK_BYTES), and budget_used counts the tuples up to the
    first that separates all trees, as if they were drawn one at a time."""
    masks = tree_masks(m)
    table = _live_table(family.product_table(i))  # the table checks its size before the basis is built
    dim = len(table) - 1
    rng = random.Random(seed)
    labels = np.zeros(len(masks), dtype=np.int64)
    classes = 1
    used = 0
    chunk = 64
    cap = max(64, 8 * CHUNK_BYTES // len(masks))
    while used < attempts and classes < len(masks):
        count = min(chunk, cap, attempts - used)
        draws = _randrange_block(rng, dim, count * (m + 1))
        prints = _fingerprints(masks, _tuple_patterns(table, draws.reshape(count, m + 1)))
        refined, classes = _refine(labels, prints, count)
        if classes == len(masks):  # find the first tuple that separates all trees
            low = 1
            while low < count:
                mid = (low + count) // 2
                if _refine(labels, prints, mid)[1] == len(masks):
                    count = mid
                else:
                    low = mid + 1
        labels = refined
        used += count
        chunk *= 2
    separated = classes == len(masks)
    return SpectrumReport(m=m, class_count=classes,
                          mode="exact" if separated else "witness-lower-bound",
                          budget_used=used, seed=seed)


def ominus_partition(m: int) -> list[list[int]]:
    """Trees of size m grouped by leaf-depth parity vector."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, t in enumerate(enumerate_trees(m)):
        groups.setdefault(ominus_class(t), []).append(idx)
    return sorted(groups.values())


def ominus_equivalence_check(family: FamilySpec, i: int, m: int,
                             budget: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Whether the exact product partition coincides with the depth-parity
    partition (the product is then equally nonassociative as double minus at m)."""
    return exact_partition(family, i, m, budget) == ominus_partition(m)
