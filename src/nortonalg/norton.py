"""Norton algebra vectors on family eigenspaces: the closed-form product,
idempotent and nilpotent machinery, identity detection, and isomorphisms
between two Spaces, such as a direct sum (a table space, `Space.of_table`).

A vector is an exact integer array over the basis positions of one
`families.Space` with one denominator; its product reads the space's
product table and is reduced by `roots.root_sums`, and labels are rendered
only when a vector is printed.

The projection oracle, which checks a space's table from value rows over
the vertex set, lives beside the table in `families`
(`families.verify_oracle_space(space)`), so that checking it loads no
`Q(w)` arithmetic; it is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

# the package's modules before numpy, families first: compiled from source, their
# scratch is freed before numpy loads and reused by it (tests/test_load_order.py)
from .families import (FamilySpec, Space, carries_table, make_family,  # the oracle, re-exported
                       verify_oracle_space)
from .cyclotomic import Cyclotomic, over_lcm
from .roots import field_degree, root_sums

import numpy as np


class AlgebraVector:
    """Vector in one eigenspace, a Space, with exact cyclotomic coefficients.

    Row k of the numerator array (dim x phi(e)) holds the power-basis
    coefficients of the chi_k coordinate, k a basis position; all rows share
    one positive denominator, in lowest terms, so equal vectors have equal
    arrays.  The numerators are Python ints in an object array: no sum or
    product can wrap.  Vectors of spaces with one key, the family's and i,
    are of one space.  Labels appear only where a vector is rendered
    (to_json, repr, coeffs)."""

    __slots__ = ("space", "num", "den")

    def __init__(self, space: Space, num, den: int = 1) -> None:
        num = np.array(num, dtype=object).reshape(space.dim, field_degree(space.modulus))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(den, *num.ravel().tolist())
        self.space, self.num, self.den = space, num // g, den // g
        self.num.flags.writeable = False

    @classmethod
    def zero(cls, space: Space) -> "AlgebraVector":
        return cls(space, [0] * space.dim * field_degree(space.modulus))

    @classmethod
    def unit(cls, space: Space, k: int) -> "AlgebraVector":
        """The basis character at position k."""
        size, deg = space.dim, field_degree(space.modulus)
        return cls(space, [int(j == k * deg) for j in range(size * deg)])

    def _check_space(self, other: "AlgebraVector") -> None:
        if self.space.key != other.space.key:
            raise ValueError(f"eigenspace mismatch: {self.space.name} vs {other.space.name}")

    def _support(self) -> np.ndarray:
        """The basis positions of the nonzero coordinates."""
        return np.flatnonzero(self.num.any(axis=1))

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        if not isinstance(other, AlgebraVector):
            return NotImplemented
        self._check_space(other)
        return AlgebraVector(self.space, self.num * other.den + other.num * self.den,
                             self.den * other.den)

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        return self + (-other)

    def __neg__(self) -> "AlgebraVector":
        return AlgebraVector(self.space, -self.num, self.den)

    def __mul__(self, scalar) -> "AlgebraVector":
        """Multiplication by an int, a Fraction or a Cyclotomic of order e."""
        if isinstance(scalar, Cyclotomic):
            e = self.space.modulus
            if scalar.order != e:
                raise ValueError(f"cyclotomic order mismatch: {scalar.order} vs {e}")
            row, den = over_lcm(scalar.coeffs)
            num = root_sums(_polynomial_products(self.num, np.array(row, object)), e)
            return AlgebraVector(self.space, num, self.den * den)
        if isinstance(scalar, (int, Fraction)):
            scalar = Fraction(scalar)
            return AlgebraVector(self.space, self.num * scalar.numerator,
                                 self.den * scalar.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.num.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraVector):
            return NotImplemented
        return (self.space.key == other.space.key and self.den == other.den
                and bool((self.num == other.num).all()))

    def __hash__(self) -> int:
        return hash((self.space.key, self.den, tuple(self.num.ravel().tolist())))

    @property
    def coeffs(self) -> dict:
        """The nonzero coordinates as basis label -> Cyclotomic, in basis order."""
        labels, e = self.space.labels, self.space.modulus
        return {labels[k]: Cyclotomic(e, [Fraction(c, self.den) for c in self.num[k]])
                for k in self._support().tolist()}

    def to_json(self) -> dict:
        """The nonzero coordinates by label text, each coefficient a
        [numerator, denominator] pair of decimal strings in lowest terms."""
        fam, support = self.space.family, self._support()
        num = self.num[support]
        g = np.gcd(num, self.den)
        pairs = np.stack((num // g, self.den // g), axis=-1).astype(str).tolist()
        labels = [self.space.labels[k] for k in support]
        return {"family": fam.describe(), "i": self.space.i,
                "coeffs": {fam.label_text(label): {"e": fam.modulus, "coeffs": cells}
                           for label, cells in sorted(zip(labels, pairs))}}

    def __repr__(self) -> str:
        if self.is_zero():
            return "AlgebraVector(0)"
        parts = [f"({c})*chi_{self.space.family.label_text(label)}"
                 for label, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


def _polynomial_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products of the integer polynomials in the rows of a (count x deg)
    and b (count x deg, or one row), low degree first, as count x (2 deg - 1)."""
    count, deg = a.shape
    out = np.zeros((count, 2 * deg - 1), dtype=object)
    for k in range(deg):
        out[:, k:k + deg] += a[:, k:k + 1] * b
    return out


def closed_form_product(v: AlgebraVector, w: AlgebraVector) -> AlgebraVector:
    """Bilinear extension of the space's product table; no vertex enumeration.

    Each pair of basis positions with a nonzero product adds the product of
    their coefficient polynomials to its target row; the rows are reduced to
    canonical form once, at the end."""
    v._check_space(w)
    a, b = v._support(), w._support()
    target = v.space.table[np.ix_(a, b)]
    pa, pb = np.nonzero(target >= 0)
    deg = v.num.shape[1]
    sums = np.zeros((len(v.num), 2 * deg - 1), dtype=object)
    np.add.at(sums, target[pa, pb], _polynomial_products(v.num[a[pa]], w.num[b[pb]]))
    return AlgebraVector(v.space, root_sums(sums, v.space.modulus), v.den * w.den)


# ---------------------------------------------------------------------------
# Idempotents of V_1(H(1,e))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Idempotent:
    """A verified idempotent of V_1(H(1,e)) with its eta-basis support."""

    vector: AlgebraVector
    support: frozenset[int]


def _v1(e: int) -> Space:
    return make_family("hamming", n=1, e=e).space(1)


def eta(e: int, j: int) -> Idempotent:
    """The idempotent eta_j = (1/(e-2)) sum_k w^(jk) chi_k of V_1(H(1,e))."""
    if e < 3:
        raise ValueError(f"eta requires e >= 3 (division by e-2), got {e}")
    if not 0 <= j < e:
        raise ValueError(f"eta index {j} out of range 0..{e - 1}")
    powers = np.eye(e, dtype=np.int64)[j * np.arange(1, e) % e]  # w^(jk) for k = 1..e-1
    vec = AlgebraVector(_v1(e), root_sums(powers, e, 1), e - 2)
    if closed_form_product(vec, vec) != vec:
        raise AssertionError(f"eta({e},{j}) failed the idempotency check")
    support = frozenset({j}) if j else frozenset(range(1, e))
    return Idempotent(vec, support)


def _eta_sums(e: int, size: int, den: int) -> list[AlgebraVector]:
    """One vector per size-subset S of {1,...,e-1}, in combinations order:
    (e-2)/den times the sum of eta_j over S, whose chi_k coordinate is
    sum_{j in S} w^(jk) / den.  The numerators of all of them are one integer
    matmul: the histogram of the residues jk mod e reduced to canonical form
    (roots.root_sums)."""
    subsets = np.array(list(combinations(range(1, e), size)), dtype=np.int64)
    count = len(subsets)
    residues = subsets[:, None, :] * np.arange(1, e)[None, :, None] % e
    cells = np.arange(count * (e - 1)).reshape(count, e - 1, 1) * e
    hist = np.bincount((cells + residues).ravel(), minlength=count * (e - 1) * e)
    num = root_sums(hist.reshape(count, e - 1, e), e, size)  # a row adds up size counts
    space = _v1(e)
    return [AlgebraVector(space, rows, den) for rows in num]


def _eta_coords(e: int, support, scale=1) -> tuple[Fraction, ...]:
    """Coordinates over eta_1..eta_(e-1) of scale * (sum of eta_j over support)."""
    return tuple(Fraction(scale) if j in support else Fraction(0) for j in range(1, e))


def _eta_product(e: int, x, y) -> tuple[Fraction, ...]:
    """The Norton product in eta coordinates: by the certified relations,
    (x*y)_j = (e x_j y_j - x_j sum(y) - y_j sum(x)) / (e-2), which commutes
    with every permutation of the coordinates."""
    sx, sy = sum(x), sum(y)
    return tuple((e * a * b - a * sy - b * sx) / (e - 2) for a, b in zip(x, y))


def _square_ratio(e: int, x) -> Fraction | None:
    """The c with x*x = c*x for nonzero eta coordinates x, or None if there is none."""
    sq = _eta_product(e, x, x)
    k = next(k for k, a in enumerate(x) if a)
    c = sq[k] / x[k]
    return c if all(b == c * a for a, b in zip(x, sq)) else None


def _size_ratios(e: int) -> dict[int, Fraction]:
    """Support size l -> c_l = (e-2l)/(e-2), l = 1..e-1, each checked on the
    representative {1..l}: its eta sum x has x*x = c_l x.  _eta_product
    commutes with permuting the coordinates, so the eta sum over every
    l-subset does too.  Raises unless eta_relations_check has certified in
    Q(w) the rational structure constants that _eta_product uses."""
    if not eta_relations_check(e):
        raise AssertionError(f"eta relations fail for e={e}; the eta frame is not certified")
    ratios = {size: Fraction(e - 2 * size, e - 2) for size in range(1, e)}
    for size, c in ratios.items():
        if _square_ratio(e, _eta_coords(e, range(1, size + 1))) != c:
            raise AssertionError(f"the eta sums over {size}-subsets failed x*x = {c} x")
    return ratios


def classified_idempotents(e: int) -> list[Idempotent]:
    """All nonzero idempotents of V_1(H(1,e)): one per nonempty subset S of
    {1,...,e-1} of size l != e/2, the sum of eta_j over S scaled by
    1/c_l = (e-2)/(e-2l) (_size_ratios), in size then combinations order:
    _eta_sums with denominator e - 2l."""
    if e < 3:
        raise ValueError(f"idempotent classification requires e >= 3, got {e}")
    idems = [Idempotent(vec, frozenset(subset))
             for size, c in _size_ratios(e).items() if c
             for subset, vec in zip(combinations(range(1, e), size),
                                    _eta_sums(e, size, e - 2 * size), strict=True)]
    vectors = {idem.vector for idem in idems}
    if len(vectors) != len(idems) or any(vec.is_zero() for vec in vectors):
        raise AssertionError("classified idempotents are not nonzero and distinct")
    return idems


def nilpotents_order2_classified(e: int) -> list[AlgebraVector]:
    """One square-zero representative per (e/2)-subset of {1,...,e-1} (even e),
    the sum of eta_j over it (_eta_sums): the sizes whose c_l is 0 (_size_ratios)."""
    if e < 3:
        raise ValueError(f"nilpotent classification requires e >= 3, got {e}")
    vectors = [vec for size, c in _size_ratios(e).items() if not c
               for vec in _eta_sums(e, size, e - 2)]
    if any(vec.is_zero() for vec in vectors):
        raise AssertionError("a nilpotent representative is zero")
    return vectors


@lru_cache(maxsize=None)
def eta_relations_check(e: int) -> bool:
    """eta_j * eta_j = eta_j, eta_j * eta_k = -(eta_j + eta_k)/(e-2) for j != k,
    and the eta_j sum to zero; all exact."""
    etas = [eta(e, j).vector for j in range(e)]
    for j, vj in enumerate(etas):
        for k, vk in enumerate(etas):
            prod = closed_form_product(vj, vk)
            expected = vj if j == k else (vj + vk) * Fraction(-1, e - 2)
            if prod != expected:
                return False
    return sum(etas, AlgebraVector.zero(_v1(e))).is_zero()


def primitivity_facts_check(e: int) -> bool:
    """Pairwise nonorthogonality of the classified idempotents x, y, plus the
    scaled-sum laws, all in eta coordinates.  (x+y)^2 = c(x+y) with
    c = (e-4l)/(e-2l) for disjoint supports of equal size l, and with
    c = (3e-4l)/(e-2l) for nested supports of sizes (e-l, l), l the larger one:
    (x+y)/c is then an idempotent, and exactly the degenerate denominators of
    1/c give c = 0, a square-zero sum.  For every other pair no c != 0 exists,
    so no multiple of x+y is a nonzero idempotent.

    _eta_product commutes with the coordinate permutations, which carry any
    pair of supports A, B to every pair with the same (|A|, |B|, |A & B|), so
    one representative pair of each such type decides all pairs."""
    if e < 3:
        raise ValueError(f"primitivity check requires e >= 3, got {e}")
    sizes = {size: 1 / c for size, c in _size_ratios(e).items() if c}
    for la, lb in combinations_with_replacement(sizes, 2):
        for k in range(max(0, la + lb - (e - 1)), la + 1):
            if la == lb == k:  # one idempotent, not a pair
                continue
            x = _eta_coords(e, range(1, la + 1), sizes[la])
            y = _eta_coords(e, range(la - k + 1, la - k + lb + 1), sizes[lb])
            if not any(_eta_product(e, x, y)):
                return False
            if k == 0 and la == lb:
                expected = Fraction(e - 4 * la, e - 2 * la)
            elif k == la and la + lb == e:  # A inside B, as la <= lb
                expected = Fraction(3 * e - 4 * lb, e - 2 * lb)
            else:
                expected = None
            c = _square_ratio(e, tuple(a + b for a, b in zip(x, y)))
            if (c != expected) if expected is not None else c:
                return False
    return True


# ---------------------------------------------------------------------------
# Identity elements
# ---------------------------------------------------------------------------

def find_identity(family: FamilySpec, i: int):
    """The identity of V_i or None.  As chi_u * chi_v = chi_(u+v), each equation
    of sum_u c_u (chi_u * chi_v) = chi_v has one unknown at most: chi_u is it if
    table row u reads 0..dim-1, and none is if a column v has no fixed entry."""
    space = family.space(i)
    positions, fixed, found = np.arange(space.dim), np.zeros(space.dim, dtype=bool), None
    for u, row in enumerate(space.table_rows()):
        fixed |= (hit := row == positions)
        found = AlgebraVector.unit(space, u) if hit.all() else found
    if not fixed.all():  # the (v, v) equation of such a column v reads 0 = 1
        return None
    chis = [AlgebraVector.unit(space, k) for k in range(space.dim)]
    if found is None or any(closed_form_product(found, chi) != chi for chi in chis):
        raise AssertionError("each column has a fixed entry, but no table row is the identity")
    return found


# ---------------------------------------------------------------------------
# Isomorphism verification
# ---------------------------------------------------------------------------

def direct_sum(spaces: list[Space], name: str) -> Space:
    """The direct sum of the given algebras, their bases in order, as a table
    space named name: summand k's basis labels are (k, label), and the table
    is block-diagonal, each block's positions shifted to its place.  Its
    field is Q(w) with w of order the moduli's lcm."""
    starts = np.cumsum([0] + [space.dim for space in spaces])
    out = np.full((starts[-1], starts[-1]), -1, dtype=np.int32)
    for space, start in zip(spaces, starts):
        block = slice(start, start + space.dim)
        out[block, block] = np.where(space.table >= 0, space.table + start, -1)
    labels = [(k, label) for k, space in enumerate(spaces) for label in space.labels]
    return Space.of_table(out, lcm(*(space.modulus for space in spaces)), name, labels)


def verify_isomorphism(perm, dom: Space, cod: Space) -> bool:
    """Whether the basis bijection a -> perm[a] from the algebra dom onto cod
    respects products: perm(a*b) = perm(a)*perm(b) for all basis pairs, with
    zero mapping to zero (families.carries_table, every exponent 0)."""
    perm = np.asarray(perm)
    if len(perm) != dom.dim or not np.array_equal(np.sort(perm), np.arange(cod.dim)):
        raise ValueError("perm is not a bijection of the domain basis onto the codomain basis")
    return carries_table(np.column_stack((perm, np.zeros_like(perm))), dom, cod)


def shipped_isomorphism_checks() -> list[tuple[str, list[int], Space, Space]]:
    """The named algebra isomorphisms this artifact certifies, as (name,
    position permutation, domain, codomain) tuples; each map is written on
    labels, a label that it does not name mapping to itself."""
    def named(kind: str, i: int, **params: int) -> tuple[str, Space]:
        family = make_family(kind, **params)
        return f"V_{i}({family.describe()})", family.space(i)

    line, pair = make_family("hamming", n=1, e=3).space(1), "V_1(H(1,3)) x V_1(H(1,3))"
    checks = []
    for (dom_name, dom), (cod_name, cod), mapping in (
            (named("folded_cube", 1, n=4), named("hypercube", 2, n=4), {}),
            (named("halved_cube", 2, n=4), named("hypercube", 2, n=3), {(1, 4): (2, 3)}),
            (named("halved_cube", 1, n=4), named("hypercube", 1, n=4), {}),
            (named("halved_cube", 1, n=5), named("hypercube", 1, n=5), {}),
            (named("halved_cube", 2, n=7), named("hypercube", 2, n=7), {}),
            (named("folded_half_cube", 1, n=8), named("halved_cube", 2, n=8), {}),
            (named("hamming", 2, n=2, e=3), (pair, direct_sum([line, line], pair)),
             {(1, 1): (0, (1,)), (2, 2): (0, (2,)), (1, 2): (1, (1,)), (2, 1): (1, (2,))})):
        perm = [cod.labels.index(mapping.get(a, a)) for a in dom.labels]
        checks.append((f"{dom_name} = {cod_name}", perm, dom, cod))
    return checks
