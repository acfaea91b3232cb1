"""Test-only references: per-element paths in exact Q(w) arithmetic, the
canonical forms of w^k by polynomial long division, the paper's product
rule on single labels, vectors keyed by label, the label
enumerations that the package's numpy rows replace, the trees as objects
and the double-minus operation on them, tree evaluation and
automorphism composition and candidates one element at a time, the
projection oracle on value rows over every vertex, the edge-identity check
of the eigenvectors at every connection element, the `table` output
rendered as one string, the row sums by residues that the XOR path
bypasses, the identity solve by elimination over Q that reading the
table's rows replaced, the live-interval patterns of the whole tuple grid
by index arithmetic, and the idempotent suite of V_1(H(1,e)) checked on
every support and every pair of supports.

Each function computes its answer one group element or one label at a time,
straight from the definitions, so the row paths of the package are checked
against an independent computation.  Nothing in the package imports this
module.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Sequence

import numpy as np

from nortonalg import cayley, trees
from nortonalg.autos import HammingAuto, SignedPermutation
from nortonalg.cyclotomic import (Cyclotomic, cyclotomic_polynomial, from_exponent_counts,
                                  root_power)
from nortonalg.errors import DEFAULT_EVAL_BUDGET, BudgetExceededError
from nortonalg.families import fq_reduce, make_family
from nortonalg.groups import Word
from nortonalg.linalg import row_reduce
from nortonalg.norton import AlgebraVector, closed_form_product

REFERENCE_VERTEX_CAP = 4096  # of the pure-Python Q(w) value tables, far below the package's

# ---------------------------------------------------------------------------
# Group elements and characters, one at a time
# ---------------------------------------------------------------------------


def word_add(x: Sequence[int], y: Sequence[int], e: int) -> Word:
    """The group law of Z_e^n: entrywise sum mod e."""
    return tuple((a + b) % e for a, b in zip(x, y))


def word_dot(u: Sequence[int], x: Sequence[int], e: int) -> int:
    """Exponent of the character indexed by u at x, an integer mod e; for
    matrices this is tr(u^t x)."""
    return sum(a * b for a, b in zip(u, x)) % e


def support(x: Word) -> tuple[int, ...]:
    """1-based positions of the nonzero entries."""
    return tuple(j + 1 for j, a in enumerate(x) if a)


def weight(x: Word) -> int:
    return sum(1 for a in x if a)


def as_matrix(x: Word, cols: int) -> tuple[tuple[int, ...], ...]:
    """The row-major flattened word x as a matrix with cols columns."""
    return tuple(tuple(x[r:r + cols]) for r in range(0, len(x), cols))


def flatten(m: Sequence[Sequence[int]], e: int) -> Word:
    return tuple(entry % e for row in m for entry in row)


def elements(n: int, e: int) -> list[Word]:
    """All of Z_e^n in lexicographic order on entry vectors."""
    return list(product(range(e), repeat=n))


def character_value(u: Word, x: Word, e: int) -> Cyclotomic:
    return root_power(e, word_dot(u, x, e))


def character_table(n: int, e: int, u: Word) -> list:
    """Values of the character indexed by u over all of Z_e^n."""
    return [character_value(u, x, e) for x in elements(n, e)]


def inner_product(phi: Sequence, psi: Sequence):
    """Hermitian inner product (1/|G|) sum of phi(g) * conj(psi(g)) over the
    domain, for tables of Q(w) values."""
    if len(phi) != len(psi):
        raise ValueError(f"table length mismatch: {len(phi)} vs {len(psi)}")
    if not phi:
        raise ValueError("empty function tables")
    total = Cyclotomic.zero(phi[0].order)
    for a, b in zip(phi, psi):
        total = total + a * b.conj()
    return total / len(phi)


def power_remainders(e: int, count: int) -> list[list[int]]:
    """x^k mod Phi_e for k = 0 .. count-1, low degree first, by polynomial
    long division: from degree count-1 down to phi(e), the coefficient c of
    x^j takes off c x^(j - phi(e)) Phi_e.  Row k starts as x^k, and the
    divisions of all k run side by side; int64 holds every coefficient of
    the orders the tests divide by (|c| <= 2 for e <= 257)."""
    phi = np.array(cyclotomic_polynomial(e), dtype=np.int64)
    deg = len(phi) - 1
    num = np.eye(count, max(count, deg + 1), dtype=np.int64)
    for j in range(count - 1, deg - 1, -1):
        num[j:, j - deg:j + 1] -= num[j:, j:j + 1] * phi  # rows k < j hold no x^j
    return num[:, :deg].tolist()


# ---------------------------------------------------------------------------
# Cayley graphs: eigenvalues and eigenvectors, one character at a time
# ---------------------------------------------------------------------------


def eigenvalue_of_character(graph, u):
    """chi_u(S) = sum over s in S of chi_u(s), computed exactly in Q(w)."""
    e = graph.modulus
    u = np.asarray(u).tolist()
    counts = [0] * e
    for s in graph.connection.tolist():
        counts[word_dot(u, s, e)] += 1
    return from_exponent_counts(e, counts)


def integer_eigenvalue(graph, u) -> int:
    """Eigenvalue downcast to an integer; raises if it is not a rational integer."""
    return eigenvalue_of_character(graph, u).as_int()


def verify_eigenvector(graph, u) -> bool:
    """Materialize chi_u, apply the adjacency operator by neighbor summation,
    and compare with eigenvalue * chi_u at every vertex, exactly."""
    e = graph.modulus
    u = np.asarray(u).tolist()
    theta = eigenvalue_of_character(graph, u)
    xs = [tuple(x) for x in graph.vertices.tolist()]
    index = {x: k for k, x in enumerate(xs)}
    exps = [word_dot(u, x, e) for x in xs]
    for k, x in enumerate(xs):
        counts = [0] * e
        for s in graph.connection.tolist():
            counts[exps[index[word_add(x, s, e)]]] += 1
        lhs = from_exponent_counts(e, counts)
        rhs = theta * root_power(e, exps[k])
        if lhs != rhs:
            return False
    return True


def _neighbor_index(graph, verts: np.ndarray) -> np.ndarray:
    """|X| x |S| int32 positions of x + s among the vertex rows verts, with a
    column for every connection element s; ValueError where some x + s is
    not among them."""
    e = graph.modulus
    find = cayley.row_finder(verts, e)
    wide = verts.astype(np.min_scalar_type(2 * e - 2))
    nbr = np.empty((len(verts), graph.degree), dtype=np.int32)
    for j, s in enumerate(graph.connection.astype(wide.dtype)):
        nbr[:, j] = find(cayley._reduced_sum(wide, s, e))
    if (nbr < 0).any():
        raise ValueError("the vertex set is not closed under adding a connection element")
    return nbr


def verify_at_every_connection_element(graph) -> bool:
    """The reference of verify_all_eigenvectors: each character's exponent
    row f over X checked against the edge identity f(x+s) = f(x) + f(s) at
    every vertex x and connection element s, |X|^2 |S| steps, with theta_u
    a rational integer.  It reads the exponent rows through
    cayley.character_exponents, so a row patched there is seen by it; the
    package's certificate reads that function only at the generators of X
    and at S."""
    e = graph.modulus
    verts, chars = graph.vertices, graph.characters
    nbr = _neighbor_index(graph, verts)
    origin = np.flatnonzero(~verts.any(axis=1))[0]
    wide = np.min_scalar_type(2 * e - 2)
    for start, stop in cayley._chunks(len(chars), len(verts) * wide.itemsize):
        exps = np.ascontiguousarray(
            cayley.character_exponents(chars[start:stop], verts, e).T, dtype=wide)
        theta = cayley._exponent_histograms(exps[nbr[origin]].T, e)
        held = np.ones(exps.shape[1], dtype=bool)
        for col, s in zip(nbr.T, nbr[origin]):
            held &= (cayley._reduced_sum(exps, exps[s], e) == exps[col]).all(axis=0)
        if not held.all() or cayley._integer_root_sums(theta, e) is None:
            return False
    return True


def generated_subgroup(rows: np.ndarray, modulus: int) -> set[tuple[int, ...]]:
    """The subgroup of Z_modulus^n that the index rows generate, as tuples,
    by closing {0} under adding each row, one element at a time."""
    zero = (0,) * rows.shape[1]
    group, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g in rows.tolist():
            y = word_add(x, g, modulus)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


# ---------------------------------------------------------------------------
# Families: bases as label lists, and the label-to-row rule
# ---------------------------------------------------------------------------


def symmetric_difference_feasible(n: int, i: int, j: int) -> bool:
    """Whether i-subsets S, T of [n] with |S symdiff T| = j exist."""
    if not 0 <= i <= n:
        raise ValueError(f"subset size {i} out of range 0..{n}")
    return j % 2 == 0 and 0 <= j <= min(2 * i, 2 * (n - i))


def reference_basis(fam, i: int) -> list:
    """The V_i basis labels by the per-label enumeration that the basis rows
    replace: Hamming words of weight i, sorted; the cube subsets of size s in
    combinations order, or those containing 1; the bilinear vertices of
    rank i in vertex order, ranked one at a time."""
    if fam.kind == "hamming":
        out = []
        for positions in combinations(range(fam.n), i):
            for values in product(range(1, fam.e), repeat=i):
                word = [0] * fam.n
                for p, v in zip(positions, values):
                    word[p] = v
                out.append(tuple(word))
        out.sort()
        return out
    if fam.kind == "bilinear":
        return [x for x in elements(fam.length, fam.q) if rank(fam, x) == i]
    s = fam._size(i)
    if fam._with_one(s):
        return [(1,) + rest for rest in combinations(range(2, fam.n + 1), s - 1)]
    return list(combinations(range(1, fam.n + 1), s))


def check_halved_character_collisions(n: int) -> None:
    """On halved-cube(n), chi_S and chi_{S^c} agree on the even-weight
    subgroup, and nothing else collides: the value rows over the vertices of
    all 2^n indicator rows fall into 2^(n-1) classes, each a set and its
    complement.  Each set's indicator row is written out directly."""
    fam = make_family("halved_cube", n=n)
    xs = fam.vertices()
    tables: dict[tuple, list] = {}
    for mask in range(2**n):
        s = tuple(j + 1 for j in range(n) if mask >> j & 1)
        vec = [mask >> j & 1 for j in range(n)]
        table = tuple(sum(v * x[j] for j, v in enumerate(vec)) % 2 for x in xs)
        tables.setdefault(table, []).append(frozenset(s))
    assert len(tables) == 2 ** (n - 1), n
    full = frozenset(range(1, n + 1))
    for sets in tables.values():
        assert len(sets) == 2 and sets[0] ^ sets[1] == full, (n, sets)


def reference_index(fam, label) -> list[int]:
    """The index vector of a basis label, written out here: the label itself
    for words and matrices; for the cubes the indicator of the subset, or on
    the halved cubes of its complement when the subset holds position n."""
    if fam.kind in ("hamming", "bilinear"):
        return list(label)
    flip = fam.halved and fam.n in label
    return [int((j in label) != flip) for j in range(1, fam.n + 1)]


# ---------------------------------------------------------------------------
# The product rule on single labels
# ---------------------------------------------------------------------------


def rank_fq(matrix, q: int) -> int:
    """Rank of a matrix over F_q (prime q)."""
    return len(fq_reduce(matrix, q)[1])


def rank(fam, flat: Word) -> int:
    """The rank over F_q of a bilinear label, a flattened d x e matrix."""
    return rank_fq(as_matrix(flat, fam.cols), fam.q)


@lru_cache(maxsize=None)
def positions(fam, i: int) -> dict:
    """Basis label -> basis position in V_i, cached per family instance."""
    return {label: k for k, label in enumerate(fam.space(i).labels)}


def in_basis(fam, i: int, label) -> bool:
    """Whether label is a V_i basis label, by the family's predicate (weight,
    subset size, rank), without enumerating the basis; i must be in range."""
    if fam.kind in ("hamming", "bilinear"):
        return (isinstance(label, tuple) and len(label) == fam.length
                and all(0 <= a < fam.modulus for a in label)
                and (weight(label) if fam.kind == "hamming" else rank(fam, label)) == i)
    s = fam._size(i)
    return (isinstance(label, tuple) and len(label) == s
            and all(a < b for a, b in zip((0,) + label, label + (fam.n + 1,)))
            and (not fam._with_one(s) or label[:1] == (1,)))


def require_basis(fam, i: int, label) -> None:
    """Raise ValueError unless i is in range and label is a V_i basis label; a
    basis already rendered answers by lookup, any other by in_basis."""
    rendered = "labels" in vars(fam.space(i))  # the space checks i
    if not (label in positions(fam, i) if rendered else in_basis(fam, i, label)):
        raise ValueError(f"label {fam.label_text(label)} is not in the V_{i} basis")


def canonical_label(fam, subset) -> tuple[int, ...]:
    """Representative of the character class of a set of cube positions:
    folded, an even set (toggling position n); halved, the smaller of it and
    its complement, or on ties the one containing 1."""
    keep = frozenset(subset)
    if fam.folded and len(keep) % 2:
        keep ^= {fam.n}
    size = 2 * len(keep)
    if fam.halved and (size > fam.n or size == fam.n and 1 not in keep):
        keep = frozenset(range(1, fam.n + 1)) - keep
    return tuple(sorted(keep))


def closed_product(fam, i: int, a, b):
    """The paper's closed-form Norton product of two basis characters of V_i:
    a basis label (unit coefficient) or None for the zero product.  Words
    add entrywise and stay when the sum is in the basis; cube sets take their
    symmetric difference, kept at size s, or n - s when halved."""
    require_basis(fam, i, a)
    require_basis(fam, i, b)
    if fam.kind in ("hamming", "bilinear"):
        w = word_add(a, b, fam.modulus)
        return w if in_basis(fam, i, w) else None
    d = frozenset(a) ^ frozenset(b)
    s = fam._size(i)
    if len(d) != s and not (fam.halved and len(d) == fam.n - s):
        return None
    return canonical_label(fam, d)


# ---------------------------------------------------------------------------
# Vectors keyed by label
# ---------------------------------------------------------------------------


class LabelVector:
    """The vector format that AlgebraVector replaced: a dict from basis label
    to nonzero Cyclotomic, with its arithmetic one label at a time."""

    def __init__(self, family, i: int, coeffs: dict) -> None:
        clean = {}
        for label, c in coeffs.items():
            require_basis(family, i, label)
            if not isinstance(c, Cyclotomic):
                c = Cyclotomic.from_rational(family.modulus, c)
            if not c.is_zero():
                clean[label] = c
        self.family = family
        self.i = i
        self.coeffs = clean

    def __add__(self, other: "LabelVector") -> "LabelVector":
        out = dict(self.coeffs)
        for label, c in other.coeffs.items():
            out[label] = out.get(label, Cyclotomic.zero(self.family.modulus)) + c
        return LabelVector(self.family, self.i, out)

    def __mul__(self, scalar) -> "LabelVector":
        return LabelVector(self.family, self.i,
                           {label: c * scalar for label, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (self.family.key, self.i, self.coeffs) == (other.family.key, other.i, other.coeffs)

    def array(self) -> AlgebraVector:
        """The same vector as an AlgebraVector."""
        space, where = self.family.space(self.i), positions(self.family, self.i)
        return sum((c * AlgebraVector.unit(space, where[label])
                    for label, c in self.coeffs.items()), AlgebraVector.zero(space))


def label_product(v: LabelVector, w: LabelVector) -> LabelVector:
    """The bilinear extension of closed_product, one label pair at a time."""
    out: dict = {}
    for a, ca in v.coeffs.items():
        for b, cb in w.coeffs.items():
            c = closed_product(v.family, v.i, a, b)
            if c is not None:
                out[c] = out.get(c, Cyclotomic.zero(v.family.modulus)) + ca * cb
    return LabelVector(v.family, v.i, out)


def vector(fam, i: int, coeffs: dict) -> AlgebraVector:
    """The AlgebraVector with the given label -> coefficient (int, Fraction
    or Cyclotomic) coordinates."""
    return LabelVector(fam, i, coeffs).array()


def basis_vector(fam, i: int, label) -> AlgebraVector:
    """The basis character with the given label."""
    return vector(fam, i, {label: 1})


# ---------------------------------------------------------------------------
# Norton algebra vectors: value tables and the pairwise projection oracle
# ---------------------------------------------------------------------------


def reference_vertices(fam) -> list:
    """The vertex rows as lists, refused past REFERENCE_VERTEX_CAP vertices."""
    if fam.vertex_count() > REFERENCE_VERTEX_CAP:
        raise BudgetExceededError(f"{fam.describe()} has over {REFERENCE_VERTEX_CAP} vertices")
    return fam.vertices().tolist()


def value_table(vec: AlgebraVector) -> list[Cyclotomic]:
    """Values of an algebra vector over the vertex set, materialized exactly."""
    fam = vec.space.family
    e = fam.modulus
    xs = reference_vertices(fam)
    out = [Cyclotomic.zero(e) for _ in xs]
    for label, c in vec.coeffs.items():
        u = reference_index(fam, label)
        for k, x in enumerate(xs):
            out[k] = out[k] + c * root_power(e, word_dot(u, x, e))
    return out


def oracle_product(v: AlgebraVector, w: AlgebraVector) -> AlgebraVector:
    """Entrywise product of value tables projected back onto V_i via character
    inner products, exactly.  Independent of the closed-form rule."""
    v._check_space(w)
    fam, i = v.space.family, v.space.i
    e = fam.modulus
    xs = reference_vertices(fam)
    tv = value_table(v)
    tw = value_table(w)
    prod = [a * b for a, b in zip(tv, tw)]
    out: dict = {}
    for label in v.space.labels:
        u = reference_index(fam, label)
        chi = [root_power(e, word_dot(u, x, e)) for x in xs]
        coeff = inner_product(prod, chi)
        if not coeff.is_zero():
            out[label] = coeff
    return vector(fam, i, out)


def vertex_row_oracle(space, vertices: np.ndarray, table: np.ndarray) -> bool:
    """The projection oracle on value rows over every vertex row: the row-sum
    lookup of the basis characters' exponent rows over vertices must equal
    table, and two basis characters with one value row fail.  On a group
    this is the verdict of families.verify_oracle_space, which reads the
    rows at generators alone."""
    e = space.modulus
    try:
        lookup = cayley.sum_positions(cayley.character_exponents(space.rows, vertices, e), e)
    except cayley.RepeatedRowError:
        return False
    return bool((lookup == table).all())


def vector_map_preserves_products(images: dict, family, i: int) -> bool:
    """Whether the linear map sending each basis character to the given vector
    is an algebra automorphism: invertible and product-preserving on basis pairs."""
    labels = family.space(i).labels
    if set(images) != set(labels):
        raise ValueError("images must be given on the full basis")
    matrix = [[images[b].coeffs.get(a, Cyclotomic.zero(family.modulus))
               for b in labels] for a in labels]
    if len(row_reduce(matrix, Cyclotomic.inv)[1]) != len(labels):
        return False

    def apply(vec: AlgebraVector) -> AlgebraVector:
        out = AlgebraVector.zero(family.space(i))
        for label, c in vec.coeffs.items():
            out = out + c * images[label]
        return out

    for a in labels:
        for b in labels:
            chi_a = basis_vector(family, i, a)
            chi_b = basis_vector(family, i, b)
            lhs = apply(closed_form_product(chi_a, chi_b))
            rhs = closed_form_product(apply(chi_a), apply(chi_b))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Trees as objects, and the double-minus operation on them
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=None)
def enumerate_trees(m: int) -> tuple[BinaryTree, ...]:
    """All full binary trees with m+1 leaves, in the order of `trees.tree_masks`;
    subtrees are shared between trees, so structural memoization can key on
    identity."""
    trees._check_tree_size(m)
    if m == 0:
        return (_LEAF,)
    out = []
    for k in range(m):
        for left in enumerate_trees(k):
            for right in enumerate_trees(m - 1 - k):
                out.append(BinaryTree(left, right))
    if len(out) != trees.catalan(m):
        raise AssertionError("tree enumeration does not match the Catalan count")
    return tuple(out)


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


def ominus_partition(m: int) -> list[list[int]]:
    """Trees of size m grouped by leaf-depth parity vector."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, t in enumerate(enumerate_trees(m)):
        groups.setdefault(ominus_class(t), []).append(idx)
    return sorted(groups.values())


def ominus_equivalence_check(space, m: int, budget: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Whether the exact product partition coincides with the depth-parity
    partition (the product is then equally nonassociative as double minus at m)."""
    return trees.exact_partition(space, m, budget) == ominus_partition(m)


# ---------------------------------------------------------------------------
# Trees evaluated and automorphisms composed one element at a time
# ---------------------------------------------------------------------------


def evaluate(t, product, inputs: list):
    """Evaluate the parenthesization encoded by the tree t over the given leaf
    inputs, one product per internal node."""
    if len(inputs) != t.leaf_count:
        raise ValueError(f"expected {t.leaf_count} inputs, got {len(inputs)}")

    def walk(node, offset: int):
        if node.is_leaf:
            return inputs[offset]
        left = walk(node.left, offset)
        right = walk(node.right, offset + node.left.leaf_count)
        return product(left, right)

    return walk(t, 0)


def identity_auto(n: int, e: int) -> HammingAuto:
    return HammingAuto((0,) * n, (1,) * n, tuple(range(n)), e)


def compose_hamming(phi: HammingAuto, psi: HammingAuto) -> HammingAuto:
    """Wreath-product composition (a + b^-1.sigma(a'), b.sigma(b'), sigma sigma'),
    so that applying the composite equals applying phi after psi."""
    if phi.e != psi.e or len(phi.a) != len(psi.a):
        raise ValueError("cannot compose automorphisms of different groups")
    e = phi.e
    b_inv = tuple(pow(v, -1, e) for v in phi.b)
    a2 = tuple(psi.a[j] for j in phi.sigma)
    b2 = tuple(psi.b[j] for j in phi.sigma)
    new_a = tuple((av + iv * cv) % e for av, iv, cv in zip(phi.a, b_inv, a2))
    new_b = tuple((bv * cv) % e for bv, cv in zip(phi.b, b2))
    new_sigma = tuple(psi.sigma[j] for j in phi.sigma)
    return HammingAuto(new_a, new_b, new_sigma, e)


def all_signed_perms(n: int, type_d: bool = False):
    """Every signed permutation of n points, or every type-D one."""
    for sigma in permutations(range(n)):
        for eps in product((1, -1), repeat=n):
            f = SignedPermutation(sigma, eps)
            if type_d and not f.is_type_d():
                continue
            yield f


def compose_signed(f: SignedPermutation, g: SignedPermutation) -> SignedPermutation:
    """Composite acting as f after g."""
    sigma = tuple(f.sigma[g.sigma[j]] for j in range(len(f.sigma)))
    f_inv = [0] * len(f.sigma)
    for j, img in enumerate(f.sigma):
        f_inv[img] = j
    eps = tuple(f.eps[j] * g.eps[f_inv[j]] for j in range(len(f.sigma)))
    return SignedPermutation(sigma, eps)


# ---------------------------------------------------------------------------
# The `table` subcommand's output, rendered as one string
# ---------------------------------------------------------------------------


def per_label_candidate(fam, i: int, image_of) -> np.ndarray:
    """Candidate array from a map label -> (exponent, image label)."""
    pos = positions(fam, i)
    return np.array([[pos.get(img, -1), exp] for exp, img in map(image_of, fam.space(i).labels)])


def signed_image(f: SignedPermutation, fam):
    """The per-label image map of a signed permutation on a cube family:
    chi_S goes to eps(sigma(S)) chi_sigma(S), type D or not."""
    def image_of(subset):
        img = frozenset(f.sigma[j - 1] + 1 for j in subset)
        return sum(f.eps[k - 1] == -1 for k in img) % 2, canonical_label(fam, img)
    return image_of


def _joined_rows(table: np.ndarray, cells: list[str], sep: str) -> list[str]:
    """Each table row as its cells joined by sep, where entry v reads cells[v],
    so a zero product (-1) reads the last cell."""
    lookup = np.array(cells, dtype=object)
    return [sep.join(lookup[row].tolist()) for row in table]


def table_output(fam, i: int, fmt: str, oracle_ok: bool | None = None) -> str:
    """The whole stdout of `table` on V_i of fam in format fmt, where oracle_ok
    is the --verify-oracle verdict or None without it: json by json.dumps of
    the payload, csv and text by the one-string renderers that the streamed
    row blocks replaced."""
    table, labels = fam.space(i).table, fam.space(i).labels
    if fmt == "json":
        payload = {
            "command": "table",
            "family": fam.describe(),
            "i": i,
            "basis": [fam.label_json(lbl) for lbl in labels],
            "table": table.tolist(),
            "oracle_verified": oracle_ok,
            "status": "ok" if oracle_ok in (None, True) else "mismatch",
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    texts = [fam.label_text(lbl) for lbl in labels]
    if fmt == "csv":
        numbers = [str(v) for v in range(len(texts))] + ["-1"]
        lines = ["*," + ",".join(texts)]
        lines += [text + "," + row for text, row in zip(texts, _joined_rows(table, numbers, ","))]
        return "\n".join(lines) + "\n"
    width = max(len(t) for t in texts) + 1
    cells = [t.rjust(width) for t in texts] + ["0".rjust(width)]
    lines = [f"# {fam.describe()} V_{i} products", " " * width + " ".join(cells[:-1])]
    lines += [text.ljust(width) + row for text, row in zip(texts, _joined_rows(table, cells, " "))]
    if oracle_ok is not None:
        lines.append(f"# oracle verified: {oracle_ok}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Row sums by residues, and the identity solve by elimination over Q
# ---------------------------------------------------------------------------


def residue_positions(rows: np.ndarray, modulus: int) -> np.ndarray:
    """`cayley.sum_positions` by residue sums (`cayley._reduced_sum`), for any
    modulus; modulo 2 it is the reference of the XOR path."""
    return cayley._filled(len(rows), cayley._residue_blocks(rows, modulus))


def find_identity_by_elimination(family, i: int):
    """Solve sum_u c_u (chi_u * chi_v) = chi_v for all basis v exactly, by
    Gauss-Jordan elimination over Fraction; returns the identity element of
    V_i or None.  This is the solve that reading the table's rows replaced."""
    space = family.space(i)
    dim = space.dim
    # one equation per (v, w): the coefficients c_u with chi_u * chi_v = chi_w
    # sum to 1 when w = v and to 0 otherwise; many (v, w) give the same
    # equation, and each distinct one is solved once
    equations: set[tuple[tuple[int, ...], int]] = set()
    for v_idx, column in enumerate(space.table.T.tolist()):
        by_target: dict[int, list[int]] = {v_idx: []}
        for u_idx, w_idx in enumerate(column):
            if w_idx >= 0:
                by_target.setdefault(w_idx, []).append(u_idx)
        equations.update((tuple(us), int(w_idx == v_idx)) for w_idx, us in by_target.items())
    zero, one = Fraction(0), Fraction(1)
    rows: list[list[Fraction]] = []
    for us, constant in sorted(equations):
        row = [zero] * (dim + 1)  # the last column is the constant
        for u_idx in us:
            row[u_idx] = one
        row[dim] = Fraction(constant)
        rows.append(row)
    reduced, pivots = row_reduce(rows, lambda x: 1 / x)
    if dim in pivots:
        return None
    sol = [zero] * dim
    for row, col in zip(reduced, pivots):
        sol[col] = row[dim]
    candidate = sum((c * AlgebraVector.unit(space, k) for k, c in enumerate(sol) if c),
                    AlgebraVector.zero(space))
    for k in range(dim):
        chi_k = AlgebraVector.unit(space, k)
        if closed_form_product(candidate, chi_k) != chi_k:
            raise AssertionError("linear solve produced a non-identity solution")
    return candidate


# ---------------------------------------------------------------------------
# Live-interval patterns of the whole tuple grid, by index arithmetic
# ---------------------------------------------------------------------------


def grid_patterns(table: np.ndarray, m: int) -> np.ndarray:
    """Distinct live-interval sets of all basis tuples of length m+1, from the
    value grid of each interval length over the full dim^length grid, looked
    up for each slice of tuple indices by index // dim**k % dim**j.  This is
    the grid that the blocked one of `trees._grid_patterns` replaced."""
    dim = len(table) - 1
    values = {1: np.arange(dim, dtype=table.dtype)}
    for length in range(2, m + 2):
        values[length] = trees._join(table, (table[values[k][:, None], values[length - k][None, :]]
                                             .reshape(-1) for k in range(1, length)))
    total = dim ** (m + 1)
    words = trees._words(m)
    step = max(1, cayley.SUM_CHUNK_BYTES // (8 * words))
    found = []
    for start in range(0, total, step):
        index = np.arange(start, min(start + step, total))
        sets = np.zeros((len(index), words), dtype=np.uint64)
        for b in range(2, m + 2):
            prefix = index // dim ** (m + 1 - b)  # the first b inputs
            for a in range(b - 1):
                trees._set_bit(sets, a, b, values[b - a][prefix % dim ** (b - a)] < dim)
        found.append(trees._distinct_rows(sets))
    return trees._distinct_rows(np.concatenate(found))


# ---------------------------------------------------------------------------
# The idempotent suite of V_1(H(1,e)) on every support and every pair
# ---------------------------------------------------------------------------


def eta_product(e: int, x, y) -> tuple[Fraction, ...]:
    """The Norton product on coordinates over eta_1..eta_(e-1), expanded one
    term x_j y_k eta_j eta_k at a time by eta_j^2 = eta_j and
    eta_j eta_k = -(eta_j + eta_k)/(e-2) for j != k."""
    out = [Fraction(0)] * len(x)
    for j, a in enumerate(x):
        for k, b in enumerate(y):
            if j == k:
                out[j] += a * b
            else:
                out[j] -= Fraction(a * b, e - 2)
                out[k] -= Fraction(a * b, e - 2)
    return tuple(out)


def _eta_sum(e: int, subset, scale=1) -> tuple[Fraction, ...]:
    return tuple(Fraction(scale) if j in subset else Fraction(0) for j in range(1, e))


def _square_ratio(e: int, x) -> Fraction | None:
    """The c with x*x = c*x for nonzero x, or None if there is none."""
    sq = eta_product(e, x, x)
    k = next(k for k, a in enumerate(x) if a)
    c = sq[k] / x[k]
    return c if all(b == c * a for a, b in zip(x, sq)) else None


def _subsets(e: int):
    """The nonempty subsets of {1,...,e-1}, by size, then in combinations order."""
    return [s for size in range(1, e) for s in combinations(range(1, e), size)]


def idempotent_supports(e: int) -> list[tuple[int, ...]]:
    """Every nonempty subset S of {1,...,e-1} some multiple of whose eta sum
    is a nonzero idempotent: x*x = c x with c != 0, so x/c is one."""
    return [s for s in _subsets(e) if _square_ratio(e, _eta_sum(e, s))]


def nilpotent_supports(e: int) -> list[tuple[int, ...]]:
    """Every nonempty subset S of {1,...,e-1} whose eta sum squares to zero."""
    sums = ((s, _eta_sum(e, s)) for s in _subsets(e))
    return [s for s, x in sums if not any(eta_product(e, x, x))]


def primitivity_on_every_pair(e: int) -> bool:
    """The primitivity facts of `norton.primitivity_facts_check`, checked on
    every pair of classified idempotents: each pair is nonorthogonal, and
    (x+y)^2 = c(x+y) with c = (e-4l)/(e-2l) for disjoint supports of equal
    size l, with c = (3e-4l)/(e-2l) for nested supports of sizes (e-l, l),
    l the larger one, and with no c != 0 for every other pair."""
    idems = [(frozenset(s), _eta_sum(e, s, Fraction(e - 2, e - 2 * len(s))))
             for s in _subsets(e) if 2 * len(s) != e]
    for p, (a_sup, x) in enumerate(idems):
        for b_sup, y in idems[p + 1:]:
            if not any(eta_product(e, x, y)):
                return False
            la, lb = len(a_sup), len(b_sup)
            big = max(la, lb)
            if not (a_sup & b_sup) and la == lb:
                expected = Fraction(e - 4 * la, e - 2 * la)
            elif (a_sup <= b_sup or b_sup <= a_sup) and la + lb == e:
                expected = Fraction(3 * e - 4 * big, e - 2 * big)
            else:
                expected = None
            c = _square_ratio(e, tuple(a + b for a, b in zip(x, y)))
            if (c != expected) if expected is not None else c:
                return False
    return True
