"""Norton algebra vectors on family eigenspaces: the independent projection
oracle, the closed-form product, idempotent and nilpotent machinery, identity
detection, and isomorphism verification.

The projection oracle multiplies characters as value rows over the vertex set
and projects back by character orthogonality; it never looks at the
index-level product rule, so agreement with the closed form is a genuine
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cayley import RepeatedRowError, character_exponents, sum_positions
from .cyclotomic import Cyclotomic, root_power
from .errors import BudgetExceededError
from .families import FamilySpec, carries_table, make_family
from .linalg import row_reduce

DEFAULT_ORACLE_VERTEX_BUDGET = 4096
DEFAULT_IDENTITY_DIM_BUDGET = 256
PRIMITIVITY_MAX_E = 7  # the largest e whose idempotent pairs primitivity_facts_check covers


class AlgebraVector:
    """Sparse vector in one eigenspace V_i, with exact cyclotomic coefficients."""

    __slots__ = ("family", "i", "coeffs")

    def __init__(self, family: FamilySpec, i: int, coeffs: dict) -> None:
        family._check_space(i)
        clean = {}
        for label, c in coeffs.items():
            family._require_basis(i, label)
            if not isinstance(c, Cyclotomic):
                c = Cyclotomic.from_rational(family.modulus, c)
            if not c.is_zero():
                clean[label] = c
        self.family = family
        self.i = i
        self.coeffs = clean

    @classmethod
    def zero(cls, family: FamilySpec, i: int) -> "AlgebraVector":
        return cls(family, i, {})

    @classmethod
    def basis_vector(cls, family: FamilySpec, i: int, label) -> "AlgebraVector":
        return cls(family, i, {label: Cyclotomic.one(family.modulus)})

    def _check_space(self, other: "AlgebraVector") -> None:
        if self.family.key != other.family.key or self.i != other.i:
            raise ValueError(
                f"eigenspace mismatch: {self.family.describe()} V_{self.i} vs "
                f"{other.family.describe()} V_{other.i}")

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        self._check_space(other)
        out = dict(self.coeffs)
        for label, c in other.coeffs.items():
            out[label] = out.get(label, Cyclotomic.zero(self.family.modulus)) + c
        return AlgebraVector(self.family, self.i, out)

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        return self + (-other)

    def __neg__(self) -> "AlgebraVector":
        return AlgebraVector(self.family, self.i,
                             {label: -c for label, c in self.coeffs.items()})

    def __mul__(self, scalar) -> "AlgebraVector":
        return AlgebraVector(self.family, self.i,
                             {label: c * scalar for label, c in self.coeffs.items()})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraVector):
            return NotImplemented
        return (self.family.key == other.family.key and self.i == other.i
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.family.key, self.i,
                     tuple(sorted((label, c.coeffs) for label, c in self.coeffs.items()))))

    def to_json(self) -> dict:
        fam = self.family
        return {
            "family": fam.describe(),
            "i": self.i,
            "coeffs": {fam.label_text(label): c.to_json()
                       for label, c in sorted(self.coeffs.items())},
        }

    def __repr__(self) -> str:
        if self.is_zero():
            return "AlgebraVector(0)"
        parts = [f"({c})*chi_{self.family.label_text(label)}"
                 for label, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


def closed_form_product(v: AlgebraVector, w: AlgebraVector) -> AlgebraVector:
    """Bilinear extension of the family's product table; no vertex enumeration."""
    v._check_space(w)
    fam, i = v.family, v.i
    e = fam.modulus
    labels, pos, table = fam.basis(i), fam.basis_position(i), fam.product_table(i)
    out: dict = {}
    for a, ca in v.coeffs.items():
        row = table[pos[a]]
        for b, cb in w.coeffs.items():
            c = row[pos[b]]
            if c >= 0:
                label = labels[c]
                out[label] = out.get(label, Cyclotomic.zero(e)) + ca * cb
    return AlgebraVector(fam, i, out)


def verify_oracle_space(family: FamilySpec, i: int) -> bool:
    """Projection-oracle check of the product table on every V_i basis pair.

    On the vertex group X, chi_u . chi_v is the character of X whose exponent
    row is the sum of theirs mod e.  Distinct characters of X are orthogonal,
    so once the V_i basis characters are distinct on X, projecting the product
    onto V_i gives the basis character with that value row, with coefficient
    1, and a row that matches no basis character certifies a zero product.
    The lookup runs on value rows over X, never on index labels or their
    canonical forms (a set and its complement give the same row on X).  Two
    basis characters with one value row fail the check: the lookup among the
    rows, which sorts or indexes them once, rejects the repeated row.
    """
    # the vertex budget is checked before basis_array, because the bilinear
    # basis enumerates the vertices under the larger default budget
    verts = family.vertices(DEFAULT_ORACLE_VERTEX_BUDGET)
    e = family.modulus
    exps = character_exponents(family.basis_array(i), verts, e)
    try:
        oracle = sum_positions(exps, e)
    except RepeatedRowError:
        return False
    return bool((oracle == family.product_table(i)).all())


# ---------------------------------------------------------------------------
# Idempotents of V_1(H(1,e))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Idempotent:
    """A verified idempotent of V_1(H(1,e)) with its eta-basis support."""

    vector: AlgebraVector
    support: frozenset[int]


def _v1_family(e: int) -> FamilySpec:
    return make_family("hamming", n=1, e=e)


def eta(e: int, j: int) -> Idempotent:
    """The idempotent eta_j = (1/(e-2)) sum_k w^(jk) chi_k of V_1(H(1,e))."""
    if e < 3:
        raise ValueError(f"eta requires e >= 3 (division by e-2), got {e}")
    if not 0 <= j < e:
        raise ValueError(f"eta index {j} out of range 0..{e - 1}")
    fam = _v1_family(e)
    coeffs = {(k,): root_power(e, j * k) / (e - 2) for k in range(1, e)}
    vec = AlgebraVector(fam, 1, coeffs)
    if closed_form_product(vec, vec) != vec:
        raise AssertionError(f"eta({e},{j}) failed the idempotency check")
    support = frozenset({j}) if j else frozenset(range(1, e))
    return Idempotent(vec, support)


def _require_eta_frame(e: int) -> None:
    """Raise unless eta_relations_check has certified in Q(w) the rational
    structure constants that _eta_product uses."""
    if not eta_relations_check(e):
        raise AssertionError(f"eta relations fail for e={e}; the eta frame is not certified")


def _certified_etas(e: int) -> dict[int, AlgebraVector]:
    """eta_1..eta_(e-1), a basis of V_1(H(1,e)), in a certified eta frame."""
    _require_eta_frame(e)
    return {j: eta(e, j).vector for j in range(1, e)}


def _eta_coords(e: int, support, scale=1) -> tuple[Fraction, ...]:
    """Coordinates over eta_1..eta_(e-1) of scale * (sum of eta_j over support)."""
    return tuple(Fraction(scale) if j in support else Fraction(0) for j in range(1, e))


def _eta_product(e: int, x, y) -> tuple[Fraction, ...]:
    """The Norton product in eta coordinates: by the certified relations,
    (x*y)_j = (e x_j y_j - x_j sum(y) - y_j sum(x)) / (e-2)."""
    sx, sy = sum(x), sum(y)
    return tuple((e * a * b - a * sy - b * sx) / (e - 2) for a, b in zip(x, y))


def _square_ratio(e: int, x) -> Fraction | None:
    """The c with x*x = c*x for nonzero eta coordinates x, or None if there is none."""
    sq = _eta_product(e, x, x)
    k = next(k for k, a in enumerate(x) if a)
    c = sq[k] / x[k]
    return c if all(b == c * a for a, b in zip(x, sq)) else None


def _classified_supports(e: int):
    """(support, scale, eta coordinates) of each classified idempotent of
    V_1(H(1,e)), in output order: one per nonempty subset of {1,...,e-1} of
    size l != e/2, scaled by (e-2)/(e-2l), each checked to be idempotent in
    eta coordinates."""
    for size in range(1, e):
        if 2 * size == e:
            continue
        scale = Fraction(e - 2, e - 2 * size)
        for subset in combinations(range(1, e), size):
            x = _eta_coords(e, subset, scale)
            if _eta_product(e, x, x) != x:
                raise AssertionError(
                    f"classified idempotent with support {subset} failed verification")
            yield subset, scale, x


def classified_idempotents(e: int) -> list[Idempotent]:
    """All nonzero idempotents of V_1(H(1,e)) (_classified_supports), built
    in Q(w) from the certified eta vectors."""
    if e < 3:
        raise ValueError(f"idempotent classification requires e >= 3, got {e}")
    etas = _certified_etas(e)
    out: list[Idempotent] = []
    seen = set()
    for subset, scale, _ in _classified_supports(e):
        vec = etas[subset[0]]
        for j in subset[1:]:
            vec = vec + etas[j]
        vec = scale * vec
        if vec.is_zero():
            raise AssertionError(
                f"classified idempotent with support {subset} failed verification")
        key = tuple(sorted((label, c.coeffs) for label, c in vec.coeffs.items()))
        if key in seen:
            raise AssertionError("classified idempotents are not distinct")
        seen.add(key)
        out.append(Idempotent(vec, frozenset(subset)))
    return out


def nilpotents_order2_classified(e: int) -> list[AlgebraVector]:
    """One square-zero representative per (e/2)-subset of {1,...,e-1} (even e),
    each verified in eta coordinates."""
    if e < 3:
        raise ValueError(f"nilpotent classification requires e >= 3, got {e}")
    if e % 2:
        return []
    etas = _certified_etas(e)
    fam = _v1_family(e)
    out = []
    for subset in combinations(range(1, e), e // 2):
        vec = AlgebraVector.zero(fam, 1)
        for j in subset:
            vec = vec + etas[j]
        x = _eta_coords(e, subset)
        if vec.is_zero() or any(_eta_product(e, x, x)):
            raise AssertionError(
                f"nilpotent representative with support {subset} failed verification")
        out.append(vec)
    return out


@lru_cache(maxsize=None)
def eta_relations_check(e: int) -> bool:
    """eta_j * eta_j = eta_j, eta_j * eta_k = -(eta_j + eta_k)/(e-2) for j != k,
    and the eta_j sum to zero; all exact."""
    etas = [eta(e, j).vector for j in range(e)]
    fam = _v1_family(e)
    total = AlgebraVector.zero(fam, 1)
    for j, vj in enumerate(etas):
        total = total + vj
        for k, vk in enumerate(etas):
            prod = closed_form_product(vj, vk)
            expected = vj if j == k else (vj + vk) * Fraction(-1, e - 2)
            if prod != expected:
                return False
    return total.is_zero()


def primitivity_facts_check(e: int) -> bool:
    """Pairwise nonorthogonality of the classified idempotents x, y, plus the
    scaled-sum laws, all in eta coordinates.  (x+y)^2 = c(x+y) with
    c = (e-4l)/(e-2l) for disjoint supports of equal size l, and with
    c = (3e-4l)/(e-2l) for nested supports of sizes (e-l, l), l the larger one:
    (x+y)/c is then an idempotent, and exactly the degenerate denominators of
    1/c give c = 0, a square-zero sum.  For every other pair no c != 0 exists,
    so no multiple of x+y is a nonzero idempotent."""
    if e < 3:
        raise ValueError(f"primitivity check requires e >= 3, got {e}")
    if e > PRIMITIVITY_MAX_E:
        raise BudgetExceededError(f"primitivity check bound is {PRIMITIVITY_MAX_E}, got e={e}")
    _require_eta_frame(e)
    idems = [(frozenset(subset), x) for subset, _, x in _classified_supports(e)]
    for p, (a_sup, x) in enumerate(idems):
        for b_sup, y in idems[p + 1:]:
            if not any(_eta_product(e, x, y)):
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


# ---------------------------------------------------------------------------
# Identity elements
# ---------------------------------------------------------------------------

def find_identity(family: FamilySpec, i: int):
    """Solve sum_u c_u (chi_u * chi_v) = chi_v for all basis v exactly; returns
    the identity element of V_i or None.  The dimension is checked before the
    basis is built."""
    dim = family.predicted_dimension(i)
    if dim > DEFAULT_IDENTITY_DIM_BUDGET:
        raise BudgetExceededError(
            f"identity solve over dimension {dim} > {DEFAULT_IDENTITY_DIM_BUDGET}")
    labels = family.basis(i)
    # one equation per (v, w): the coefficients c_u with chi_u * chi_v = chi_w
    # sum to 1 when w = v and to 0 otherwise; many (v, w) give the same
    # equation, and each distinct one is solved once
    equations: set[tuple[tuple[int, ...], int]] = set()
    for v_idx, column in enumerate(family.product_table(i).T.tolist()):
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
    candidate = AlgebraVector(family, i,
                              {labels[k]: sol[k] for k in range(dim) if sol[k]})
    for v in labels:
        chi_v = AlgebraVector.basis_vector(family, i, v)
        if closed_form_product(candidate, chi_v) != chi_v:
            raise AssertionError("linear solve produced a non-identity solution")
    return candidate


# ---------------------------------------------------------------------------
# Isomorphism verification
# ---------------------------------------------------------------------------

class BasisAlgebra:
    """A finite basis with a multiplicity-free product, given by its product
    table: entry (a, b) is the position of the basis product a*b (with unit
    coefficient), or -1 when it is zero."""

    def __init__(self, labels: list, table: np.ndarray, name: str) -> None:
        self.labels = list(labels)
        self.table = table
        self.name = name

    @classmethod
    def from_eigenspace(cls, family: FamilySpec, i: int) -> "BasisAlgebra":
        return cls(family.basis(i), family.product_table(i), f"{family.describe()}[V_{i}]")

    @classmethod
    def direct_product(cls, parts: list["BasisAlgebra"]) -> "BasisAlgebra":
        """Labels (k, label) of the parts in order, with a block-diagonal table."""
        labels = [(k, lbl) for k, part in enumerate(parts) for lbl in part.labels]
        table = np.full((len(labels), len(labels)), -1, dtype=np.int32)
        start = 0
        for part in parts:
            stop = start + len(part.labels)
            table[start:stop, start:stop] = np.where(part.table >= 0, part.table + start, -1)
            start = stop
        return cls(labels, table, " x ".join(p.name for p in parts))


def verify_isomorphism(mapping: dict, dom: BasisAlgebra, cod: BasisAlgebra) -> bool:
    """Whether the basis bijection respects products: map(a*b) = map(a)*map(b)
    for all basis pairs, with zero mapping to zero."""
    if set(mapping) != set(dom.labels):
        raise ValueError("mapping does not cover the domain basis")
    values = set(mapping.values())
    if len(values) != len(mapping) or values != set(cod.labels):
        raise ValueError("mapping is not a bijection onto the codomain basis")
    where = {label: k for k, label in enumerate(cod.labels)}
    perm = np.array([where[mapping[a]] for a in dom.labels])
    return carries_table(perm, dom.table, cod.table)


def shipped_isomorphism_checks() -> list[tuple[str, dict, BasisAlgebra, BasisAlgebra]]:
    """The named algebra isomorphisms this artifact certifies, as
    (name, basis bijection, domain, codomain) tuples."""
    checks = []
    dom = BasisAlgebra.from_eigenspace(make_family("folded_cube", n=4), 1)
    cod = BasisAlgebra.from_eigenspace(make_family("hypercube", n=4), 2)
    checks.append(("V_1(folded_cube(4)) = V_2(hypercube(4))",
                   {lbl: lbl for lbl in dom.labels}, dom, cod))

    dom = BasisAlgebra.from_eigenspace(make_family("halved_cube", n=4), 2)
    cod = BasisAlgebra.from_eigenspace(make_family("hypercube", n=3), 2)
    checks.append(("V_2(halved_cube(4)) = V_2(hypercube(3))",
                   {(1, 2): (1, 2), (1, 3): (1, 3), (1, 4): (2, 3)}, dom, cod))

    for (i, n) in ((1, 4), (1, 5), (2, 7)):
        dom = BasisAlgebra.from_eigenspace(make_family("halved_cube", n=n), i)
        cod = BasisAlgebra.from_eigenspace(make_family("hypercube", n=n), i)
        checks.append((f"V_{i}(halved_cube({n})) = V_{i}(hypercube({n}))",
                       {lbl: lbl for lbl in dom.labels}, dom, cod))

    dom = BasisAlgebra.from_eigenspace(make_family("folded_half_cube", n=8), 1)
    cod = BasisAlgebra.from_eigenspace(make_family("halved_cube", n=8), 2)
    checks.append(("V_1(folded_half_cube(8)) = V_2(halved_cube(8))",
                   {lbl: lbl for lbl in dom.labels}, dom, cod))

    dom = BasisAlgebra.from_eigenspace(make_family("hamming", n=2, e=3), 2)
    line = BasisAlgebra.from_eigenspace(make_family("hamming", n=1, e=3), 1)
    cod = BasisAlgebra.direct_product([line, line])
    mapping = {(1, 1): (0, (1,)), (2, 2): (0, (2,)),
               (1, 2): (1, (1,)), (2, 1): (1, (2,))}
    checks.append(("V_2(hamming(2,3)) = V_1(H(1,3)) x V_1(H(1,3))", mapping, dom, cod))
    return checks
