"""Associative spectra: the full binary trees with m+1 leaves, each held as
the interval set of its internal nodes (tree_masks, whose rows define the
order of the trees), partitioned into classes of equal multilinear maps on
a Space, and the double-minus class count a000975.

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

Both counters work in steps of cayley.SUM_CHUNK_BYTES (256 KiB), the budget
the product table and the automorphism check share, each step sized by the
arrays it holds: the exact counter takes the tuples in blocks that fix their
leading inputs and the trees in blocks, and keeps one fingerprint key per
class, not a Catalan(m) x patterns matrix; the witness counter draws tuples
in chunks.  Outside the budget lie the distinct live patterns and the keys,
and tree_masks with its sub-interval memo: a traced 0.4, 2.7 and 9.4 MiB
at m = 10, 11 and 12.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

# the package's modules before numpy, families first: compiled from source, their
# scratch is freed before numpy loads and reused by it (tests/test_load_order.py)
from .families import Space
from . import cayley
from .cayley import row_keys
from .errors import DEFAULT_EVAL_BUDGET, BudgetExceededError, size_text

import numpy as np

DEFAULT_MAX_M = 12
DEFAULT_WITNESS_ATTEMPTS = 10_000


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def exact_price(space: Space, m: int) -> int:
    """Exact mode's evaluations: dim^(m+1) basis tuples for each of the Catalan(m) trees."""
    return space.dim ** (m + 1) * catalan(m)


def _check_tree_size(m: int) -> None:
    if m < 0:
        raise ValueError(f"tree size must be >= 0, got {m}")
    if m > DEFAULT_MAX_M:
        raise BudgetExceededError(f"tree enumeration capped at m={DEFAULT_MAX_M}, got {m}")


def check_exact_price(space: Space, m: int, budget: int) -> None:
    """Refuse exact mode at m when its exact_price is over budget."""
    _check_tree_size(m)
    cost = exact_price(space, m)
    if cost > budget:
        raise BudgetExceededError(
            f"exact mode needs {size_text(cost)} evaluations (budget {budget}); use witness mode")


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
    """Add [a, b) to the sets (shape (..., words)) selected by where, which
    broadcasts against the leading axes."""
    k = (b - 1) * (b - 2) // 2 + a
    bits = 8 * sets.itemsize
    sets[..., k // bits] |= np.multiply(where, sets.dtype.type(1 << (k % bits)), dtype=sets.dtype)


def tree_masks(m: int) -> np.ndarray:
    """Interval sets of the trees with m+1 leaves: a (Catalan(m), words)
    uint64 array whose row holds the bit of [a, b) when an internal node of
    the tree spans the leaves a..b-1.  The rows define the tree order: by
    the leaf count of the root's left subtree, fewest first, then by the
    left subtree and then the right, each in this order."""
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

    out = masks(0, m + 1)
    if len(out) != catalan(m):
        raise AssertionError("tree masks do not match the Catalan count")
    return out


def _live_table(products: np.ndarray) -> np.ndarray:
    """The product table on interval values.  A value is a basis position, or
    dim when no parenthesization of the interval is nonzero; entry [u, v] is
    the position of u*v, dim for a zero product, and dim+1 when u or v is dim."""
    dim = len(products)
    table = np.full((dim + 1, dim + 1), dim + 1, dtype=np.min_scalar_type(dim + 1))
    table[:dim, :dim] = np.where(products < 0, dim, products)
    return table


def _join(table: np.ndarray, entries) -> np.ndarray:
    """Values of one interval from the table entries of its splits: for each
    split, the entries at the values of its two halves.

    Every split whose halves are live must give the same entry, one position
    or zero throughout; this is the case when products are determined by the
    sum of their inputs, and then all nonzero trees on the interval share
    that value, so a tree is nonzero exactly when all its intervals are live.
    """
    skip = len(table)
    value = None
    for entry in entries:
        if value is None:
            value = entry  # a fresh array, so the joins below write to it
            continue
        top = np.maximum(entry, value)
        np.minimum(value, entry, out=value)
        del entry  # so a join holds three arrays of entries and a mask
        # two live entries differ where the smaller is below the larger and
        # the larger is live
        clash = np.less(value, top)
        clash &= np.less(top, skip)
        if clash.any():
            raise AssertionError("the product is not determined by the sum of its "
                                 "inputs: two splits of one interval disagree")
        del top, clash
    return np.minimum(value, skip - 1, out=value)


def _outer(table: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """table[left[:, None], right[None, :]] flattened: several times faster
    than 2-d fancy indexing.  Entries are gathered one by one, rows whole:
    with more left values than table rows, the entries of the columns at
    right first and then whole rows of them at left; else the rows at left
    and then their entries at right."""
    if len(left) > len(table):
        return np.take(table[:, right], left, axis=0).reshape(-1)
    return np.take(table[left], right, axis=1).reshape(-1)


def _grid_layout(dim: int, m: int, itemsize: int) -> tuple[int, int, int, np.dtype]:
    """(fixed, group, longest, dtype) of the blocks of the tuple grid (see
    _grid_patterns): the most free inputs and then the largest group whose
    block fits in SUM_CHUNK_BYTES next to what is held throughout.  The
    interval sets are uint64 words, as the tree masks are, when the whole
    grid is one block; else words of 16 or 32 bits where the m(m+1)/2 bits
    fit in one, so a block holds more tuples.

    Held throughout: the base block and the grids of each length up to
    longest, the free count or more while a grid and the join that makes it
    take at most the budget.  Per tuple a block holds its interval set and
    either a join's three arrays of entries and a mask (_join) or a live
    mask and its bit word; per value of the group, the grids joined per
    block."""
    budget = cayley.SUM_CHUNK_BYTES
    bits = m * (m + 1) // 2
    small = np.dtype(np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64)
    quarter = max(n for n in range(1, m + 2) if n == 1 or 4 * dim ** n * itemsize <= budget)
    for free in range(m + 1, -1, -1):
        fixed = m + 1 - free
        dtype = small if fixed else np.dtype(np.uint64)
        set_bytes = _words(m) * dtype.itemsize
        longest = max(free, quarter)
        held = sum(dim ** n for n in range(1, longest + 1)) * itemsize + dim ** free * set_bytes
        joined = sum(dim ** (b - fixed) for a in range(fixed)
                     for b in range(max(a + longest + 1, fixed), m + 2))
        tuple_bytes = set_bytes + max(3 * itemsize + 1, 1 + set_bytes)
        group = (budget - held) // (dim ** free * tuple_bytes + joined * itemsize)
        if group >= 1 or free == 0:
            return fixed, min(max(1, group), dim if fixed else 1), longest, dtype
    raise AssertionError("unreachable")


def _grid_patterns(table: np.ndarray, m: int) -> np.ndarray:
    """Distinct live-interval sets of all basis tuples of length m+1.

    The tuples come in blocks that fix their first `fixed` inputs: each of
    the first fixed - 1 to one value, the last to a group of consecutive
    values (_grid_layout).  The value of an interval depends only on its own
    inputs, so the grid of each length up to longest is joined once, from
    the shorter lengths, and each interval inside the free inputs sets its
    bits once in a base block.  In a block, an interval that starts in the
    fixed inputs reads its grid over the group's values and the free inputs
    it spans as one contiguous slice of the grid of its length; only the
    longer ones are joined per block.  Each live grid sets its bit across
    the block's other inputs, so no array outgrows a block."""
    dim = len(table) - 1
    words = _words(m)
    fixed, group, longest, dtype = _grid_layout(dim, m, table.itemsize)
    free = m + 1 - fixed
    lengths = {1: np.arange(dim, dtype=table.dtype)}  # the grid of each length
    for n in range(2, longest + 1):
        lengths[n] = _join(table, (_outer(table, lengths[k], lengths[n - k]) for k in range(1, n)))
    values = {}  # per block, the grids of the intervals that start in the fixed inputs

    def grid(a: int, b: int) -> np.ndarray:  # over its inputs from fixed - 1 on
        return values[a, b] if a < fixed else lengths[b - a]

    def add(sets: np.ndarray, a: int, b: int) -> None:
        if b - a > longest:
            values[a, b] = _join(table, (_outer(table, grid(a, s), grid(s, b))
                                         for s in range(a + 1, b)))
        live = grid(a, b) < dim
        _set_bit(sets.reshape(-1, len(live), dim ** (m + 1 - max(b, fixed)), words), a, b,
                 live[:, None])

    base = np.zeros((dim ** free, words), dtype=dtype)
    for a, b in _intervals(m):
        if a >= fixed:
            add(base, a, b)
    if not fixed:
        return _distinct_rows(base)
    block = np.empty((group, dim ** free, words), dtype=base.dtype)
    patterns = base[:0]
    for prefix in np.ndindex(*(dim,) * (fixed - 1)):
        for first in range(0, dim, group):
            count = min(group, dim - first)
            digits = prefix + (first,)
            for a in range(fixed):
                code = 0
                for b in range(a + 1, min(a + longest, m + 1) + 1):
                    if b <= fixed:
                        code = code * dim + digits[b - 1]
                    span = dim ** max(b - fixed, 0)
                    width = count if b >= fixed else 1  # the group's values, if [a, b) holds them
                    values[a, b] = lengths[b - a][code * span:(code + width) * span]
            sets = block[:count]
            sets[:] = base
            for a, b in _intervals(m):
                if a < fixed:
                    add(sets, a, b)
            patterns = _distinct_rows(np.concatenate(
                [patterns, _distinct_rows(sets.reshape(-1, words))]))
    return patterns


def _distinct_rows(sets: np.ndarray) -> np.ndarray:
    """The distinct rows of sets in the order np.unique gives them; sets is
    sorted in place."""
    if sets.shape[1] == 1:  # plain integers: faster still
        return _sorted_distinct(sets[:, 0])[:, None]
    return _sorted_distinct(row_keys(sets)).view(sets.dtype).reshape(-1, sets.shape[1])


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for a 1-d array, by one sort in place and a mask of
    the entries that differ from their predecessor."""
    values.sort()
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
        values[a, b] = _join(table, (table[values[a, s], values[s, b]] for s in range(a + 1, b)))
        _set_bit(sets, a, b, values[a, b] < dim)
    return sets


def _fingerprints(masks: np.ndarray, patterns: np.ndarray):
    """Blocks of rows in tree order: bit p of row t is set when tree t is
    nonzero under pattern p, that is, when its interval set lies inside the
    pattern; 8 patterns to a byte.  A block fits in SUM_CHUNK_BYTES: per
    tree and pattern it holds the AND of their words, in one buffer that
    every block and word reuses, two masks and a packed bit."""
    outside = np.ascontiguousarray(~patterns.T)  # one contiguous row per word
    masks = masks.astype(patterns.dtype, copy=False)  # the interval bits fit in either
    rows = max(1, 8 * cayley.SUM_CHUNK_BYTES // (len(patterns) * (8 * patterns.itemsize + 17)))
    both = np.empty((min(rows, len(masks)), len(patterns)), dtype=patterns.dtype)
    inside = np.empty(both.shape, dtype=bool)
    for start in range(0, len(masks), rows):
        block = masks[start:start + rows]
        held, found = both[:len(block)], inside[:len(block)]
        np.equal(np.bitwise_and(block[:, 0, None], outside[0], out=held), 0, out=found)
        for w in range(1, masks.shape[1]):
            found &= np.bitwise_and(block[:, w, None], outside[w], out=held) == 0
        yield np.packbits(found, axis=1)


def _tree_keys(space: Space, m: int, budget: int):
    """The fingerprint of each tree over the distinct live patterns of all
    dim^(m+1) basis tuples, as bytes, in tree_masks order.  On a basis
    tuple the nonzero trees share one value, so two trees agree there exactly
    when both or neither of their interval sets lie inside the tuple's live
    pattern; by multilinearity equal keys are equal multilinear maps."""
    check_exact_price(space, m, budget)
    patterns = _grid_patterns(_live_table(space.table), m)
    for block in _fingerprints(tree_masks(m), patterns):
        yield from row_keys(block).tolist()  # bytes objects


def exact_partition(space: Space, m: int, budget: int = DEFAULT_EVAL_BUDGET) -> list[list[int]]:
    """Partition of the trees of size m into classes with equal multilinear maps."""
    groups: dict[bytes, list[int]] = {}
    for idx, key in enumerate(_tree_keys(space, m, budget)):
        groups.setdefault(key, []).append(idx)
    return sorted(groups.values())


def count_classes_exact(space: Space, m: int, budget: int = DEFAULT_EVAL_BUDGET) -> SpectrumReport:
    """Exact associative-spectrum count from the live patterns of all basis
    tuples (complete by multilinearity); budget_used is the exact_price."""
    classes = len(set(_tree_keys(space, m, budget)))
    return SpectrumReport(m=m, class_count=classes, mode="exact", budget_used=exact_price(space, m))


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


def count_classes_witness(space: Space, m: int, seed: int = 0,
                          attempts: int = DEFAULT_WITNESS_ATTEMPTS) -> SpectrumReport:
    """Distinguish tree pairs by seeded random basis tuples.  If every pair is
    separated the count equals Catalan(m) and the mode is exact; otherwise the
    refined partition size is reported as a lower bound.

    Tuples are drawn in chunks that double from 64 while a chunk fits in
    SUM_CHUNK_BYTES: per tuple its int64 draws, interval set and interval
    values, and per tree its fingerprint bit in the blocks, in prints and in
    _refine's copy, keys and sort.  budget_used counts the tuples up to the
    first that separates all trees, as if they were drawn one at a time."""
    masks = tree_masks(m)
    table = _live_table(space.table)  # the table checks its size before the basis is built
    dim = len(table) - 1
    rng = random.Random(seed)
    labels = np.zeros(len(masks), dtype=np.int64)
    classes = 1
    used = 0
    chunk = 64
    per_tuple = 8 * (m + 1 + _words(m)) + len(_intervals(m)) * table.itemsize + len(masks) * 5 // 8
    cap = max(64, cayley.SUM_CHUNK_BYTES // per_tuple)
    while used < attempts and classes < len(masks):
        count = min(chunk, cap, attempts - used)
        draws = _randrange_block(rng, dim, count * (m + 1))
        patterns = _tuple_patterns(table, draws.reshape(count, m + 1))
        prints = np.concatenate(list(_fingerprints(masks, patterns)))
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
