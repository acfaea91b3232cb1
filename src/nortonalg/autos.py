"""Constructed automorphism actions on the Norton algebra bases, and an
exhaustive checker that a basis-level candidate map preserves products.

All constructed actions are monomial: a basis character maps to a root of
unity times a basis character.  Candidates are dictionaries from basis label
to (coefficient, label).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations, product
from math import factorial, gcd

import numpy as np

from .cyclotomic import Cyclotomic, root_power
from .errors import BudgetExceededError
from .families import (BilinearFamily, FamilySpec, HalvedCubeFamily, HammingFamily,
                       HypercubeFamily, carries_table, fq_reduce)
from .groups import Word

DEFAULT_PAIR_BUDGET = 10**6

Monomial = tuple[Cyclotomic, object]
Candidate = dict


# ---------------------------------------------------------------------------
# Hamming wreath-product actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HammingAuto:
    """(a, b, sigma): sends chi_u to chi_a(b.sigma(u)) chi_{b.sigma(u)}, where
    sigma(u)[j] = u[sigma[j]] and b acts entrywise; b entries must be units."""

    a: Word
    b: Word
    sigma: tuple[int, ...]
    e: int

    def __post_init__(self):
        n = len(self.a)
        if len(self.b) != n or len(self.sigma) != n:
            raise ValueError("component length mismatch in (a, b, sigma)")
        if sorted(self.sigma) != list(range(n)):
            raise ValueError(f"sigma {self.sigma} is not a permutation")
        for v in self.b:
            if gcd(v, self.e) != 1:
                raise ValueError(f"b entry {v} is not a unit mod {self.e}")


def identity_auto(n: int, e: int) -> HammingAuto:
    return HammingAuto((0,) * n, (1,) * n, tuple(range(n)), e)


def _permuted(sigma: tuple[int, ...], word: Word) -> Word:
    return tuple(word[j] for j in sigma)


def _auto_image_index(phi: HammingAuto, u: Word) -> Word:
    e = phi.e
    return tuple((bv * uv) % e for bv, uv in zip(phi.b, _permuted(phi.sigma, u)))


def apply_hamming_auto(phi: HammingAuto, family: HammingFamily, i: int,
                       u: Word) -> Monomial:
    """Image of the basis character chi_u as (coefficient, basis label); the
    coefficient is the root of unity chi_a(b.sigma(u)) and the support of the
    index is preserved."""
    if not isinstance(family, HammingFamily) or family.e != phi.e:
        raise ValueError("automorphism parameters do not match the family")
    family._require_basis(i, u)
    image = _auto_image_index(phi, u)
    exp = sum(av * iv for av, iv in zip(phi.a, image)) % phi.e
    return root_power(phi.e, exp), image


def compose_hamming(phi: HammingAuto, psi: HammingAuto) -> HammingAuto:
    """Wreath-product composition (a + b^-1.sigma(a'), b.sigma(b'), sigma sigma'),
    so that applying the composite equals applying phi after psi."""
    if phi.e != psi.e or len(phi.a) != len(psi.a):
        raise ValueError("cannot compose automorphisms of different groups")
    e = phi.e
    b_inv = tuple(pow(v, -1, e) for v in phi.b)
    a2 = _permuted(phi.sigma, psi.a)
    b2 = _permuted(phi.sigma, psi.b)
    new_a = tuple((av + iv * cv) % e for av, iv, cv in zip(phi.a, b_inv, a2))
    new_b = tuple((bv * cv) % e for bv, cv in zip(phi.b, b2))
    new_sigma = tuple(psi.sigma[j] for j in phi.sigma)
    return HammingAuto(new_a, new_b, new_sigma, e)


def random_hamming_auto(rng: random.Random, n: int, e: int) -> HammingAuto:
    units = [v for v in range(1, e) if gcd(v, e) == 1]
    a = tuple(rng.randrange(e) for _ in range(n))
    b = tuple(rng.choice(units) for _ in range(n))
    sigma = list(range(n))
    rng.shuffle(sigma)
    return HammingAuto(a, b, tuple(sigma), e)


def hamming_candidate(phi: HammingAuto, family: HammingFamily, i: int) -> Candidate:
    return {u: apply_hamming_auto(phi, family, i, u) for u in family.basis(i)}


def all_hamming_autos(n: int, e: int):
    units = [v for v in range(1, e) if gcd(v, e) == 1]
    for a in product(range(e), repeat=n):
        for b in product(units, repeat=n):
            for sigma in permutations(range(n)):
                yield HammingAuto(a, b, sigma, e)


def kernel_check_hamming(family: HammingFamily, i: int) -> dict:
    """Enumerate all (a, b, sigma) acting as the identity on the V_i basis and
    compare with the predicted kernel: trivial for e >= 3, i >= 1, and
    {identity, (all-ones, 1, id)} for e = 2 with 1 <= i < n even."""
    n, e = family.n, family.e
    covered = (e >= 3 and i >= 1) or (e == 2 and 1 <= i < n)
    if not covered:
        raise ValueError(f"kernel description covers e>=3,i>=1 or e=2,1<=i<n; "
                         f"got e={e}, i={i}, n={n}")
    total = e**n * sum(1 for v in range(1, e) if gcd(v, e) == 1) ** n
    if total * factorial(n) > 10**5:
        raise BudgetExceededError("kernel enumeration too large")
    one = Cyclotomic.one(e)
    kernel = []
    for phi in all_hamming_autos(n, e):
        if all(apply_hamming_auto(phi, family, i, u) == (one, u)
               for u in family.basis(i)):
            kernel.append((phi.a, phi.b, phi.sigma))
    ident = identity_auto(n, e)
    expected = [(ident.a, ident.b, ident.sigma)]
    if e == 2 and i % 2 == 0:
        expected.append(((1,) * n, (1,) * n, tuple(range(n))))
    return {
        "kernel": sorted(kernel),
        "expected": sorted(expected),
        "ok": sorted(kernel) == sorted(expected),
    }


# ---------------------------------------------------------------------------
# Signed permutations on the cube variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedPermutation:
    """f = (sigma, eps): position j maps to sigma[j-1]+1 with sign eps[j-1]."""

    sigma: tuple[int, ...]
    eps: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise ValueError(f"sigma {self.sigma} is not a permutation")
        if len(self.eps) != len(self.sigma) or any(s not in (1, -1) for s in self.eps):
            raise ValueError("eps must assign +-1 per position")

    def is_type_d(self) -> bool:
        sign = 1
        for s in self.eps:
            sign *= s
        return sign == 1

    def image_set(self, subset) -> frozenset[int]:
        return frozenset(self.sigma[j - 1] + 1 for j in subset)

    def sign_of(self, subset) -> int:
        sign = 1
        for j in subset:
            sign *= self.eps[j - 1]
        return sign


def compose_signed(f: SignedPermutation, g: SignedPermutation) -> SignedPermutation:
    """Composite acting as f after g."""
    sigma = tuple(f.sigma[g.sigma[j]] for j in range(len(f.sigma)))
    f_inv = [0] * len(f.sigma)
    for j, img in enumerate(f.sigma):
        f_inv[img] = j
    eps = tuple(f.eps[j] * g.eps[f_inv[j]] for j in range(len(f.sigma)))
    return SignedPermutation(sigma, eps)


def apply_signed_perm(f: SignedPermutation, family: FamilySpec, i: int, subset,
                      check_type_d: bool = True) -> Monomial:
    """Image of chi_S as (sign, basis label): sign eps(sigma(S)) and index
    sigma(S), canonicalized on the halved cube.  Halved-cube targets require a
    type-D signed permutation, for which the sign is class-invariant."""
    if isinstance(family, HypercubeFamily):
        canon = lambda s: tuple(sorted(s))
    elif isinstance(family, HalvedCubeFamily):
        if check_type_d and not f.is_type_d():
            raise ValueError("halved-cube action requires a type-D signed permutation")
        canon = family.canonical_label
    else:
        raise ValueError(f"signed permutations act on hypercube or halved_cube, "
                         f"not {family.kind}")
    family._require_basis(i, subset)
    image = f.image_set(subset)
    sign = f.sign_of(image)
    return Cyclotomic.from_rational(2, sign), canon(image)


def signed_perm_candidate(f: SignedPermutation, family: FamilySpec, i: int,
                          check_type_d: bool = True) -> Candidate:
    return {s: apply_signed_perm(f, family, i, s, check_type_d)
            for s in family.basis(i)}


def all_signed_perms(n: int, type_d: bool = False):
    for sigma in permutations(range(n)):
        for eps in product((1, -1), repeat=n):
            f = SignedPermutation(sigma, eps)
            if type_d and not f.is_type_d():
                continue
            yield f


def random_signed_perm(rng: random.Random, n: int, type_d: bool = False) -> SignedPermutation:
    sigma = list(range(n))
    rng.shuffle(sigma)
    eps = [rng.choice((1, -1)) for _ in range(n)]
    if type_d and eps.count(-1) % 2:
        eps[rng.randrange(n)] *= -1
    return SignedPermutation(tuple(sigma), tuple(eps))


# ---------------------------------------------------------------------------
# Bilinear forms actions
# ---------------------------------------------------------------------------

Matrix = tuple[tuple[int, ...], ...]


def mat_mul(a: Matrix, b: Matrix, q: int) -> Matrix:
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    if len(a[0]) != inner:
        raise ValueError("matrix shape mismatch")
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(inner)) % q for c in range(cols))
        for r in range(rows))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_inv(a: Matrix, q: int) -> Matrix | None:
    """Inverse over F_q by Gauss-Jordan on [a | I], or None if singular."""
    n = len(a)
    reduced, pivots = fq_reduce([row + ident for row, ident in zip(a, mat_identity(n))], q)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def random_gl(rng: random.Random, n: int, q: int) -> Matrix:
    while True:
        m = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
        if mat_inv(m, q) is not None:
            return m


@dataclass(frozen=True)
class BilinearAuto:
    """One generator action on V_i(H_q(d,e)): a translation chi_u -> chi_x(u) chi_u,
    a left multiplication chi_u -> chi_{au}, or a right one chi_u -> chi_{u b^-1}.
    A left or right matrix must be invertible over F_q; its inverse is
    computed once, here."""

    kind: str  # "translate" | "left" | "right"
    matrix: Matrix
    q: int
    inverse: Matrix | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("translate", "left", "right"):
            raise ValueError(f"unknown bilinear action kind {self.kind!r}")
        inverse = None
        if self.kind != "translate":
            inverse = mat_inv(self.matrix, self.q)
            if inverse is None:
                raise ValueError(f"{self.kind} action requires an invertible matrix")
        object.__setattr__(self, "inverse", inverse)


def apply_bilinear_auto(auto: BilinearAuto, family: BilinearFamily, i: int,
                        u: Word) -> Monomial:
    family._require_basis(i, u)
    q = family.q
    if auto.q != q:
        raise ValueError("automorphism parameters do not match the family")
    grp = family.group
    one = Cyclotomic.one(q)
    if auto.kind == "translate":
        x_flat = grp.flatten(auto.matrix)
        return root_power(q, grp.dot(x_flat, u)), u
    u_mat = grp.as_matrix(u)
    if auto.kind == "left":
        if len(auto.matrix) != family.d:
            raise ValueError("left action requires a d x d matrix")
        return one, grp.flatten(mat_mul(auto.matrix, u_mat, q))
    if len(auto.matrix) != family.cols:
        raise ValueError("right action requires an e x e matrix")
    return one, grp.flatten(mat_mul(u_mat, auto.inverse, q))


def bilinear_candidate(auto: BilinearAuto, family: BilinearFamily, i: int) -> Candidate:
    return {u: apply_bilinear_auto(auto, family, i, u) for u in family.basis(i)}


def _apply_chain(autos: list[BilinearAuto], family: BilinearFamily, i: int,
                 u: Word) -> Monomial:
    coeff = Cyclotomic.one(family.q)
    label = u
    for auto in autos:
        c, label = apply_bilinear_auto(auto, family, i, label)
        coeff = coeff * c
    return coeff, label


def conjugation_identity_check(family: BilinearFamily, x: Matrix, a: Matrix,
                               b: Matrix) -> bool:
    """rho_b^-1 lambda_a^-1 phi_x lambda_a rho_b acts as the translation by
    a^t x (b^-1)^t, checked on every basis character of every V_i, i >= 1."""
    q = family.q
    left = BilinearAuto("left", a, q)
    right = BilinearAuto("right", b, q)
    chain = [right, left, BilinearAuto("translate", x, q),
             BilinearAuto("left", left.inverse, q), BilinearAuto("right", right.inverse, q)]
    target = mat_mul(mat_mul(mat_transpose(a), x, q), mat_transpose(right.inverse), q)
    rhs_auto = BilinearAuto("translate", target, q)
    for i in range(1, family.diameter + 1):
        for u in family.basis(i):
            if _apply_chain(chain, family, i, u) != apply_bilinear_auto(rhs_auto, family, i, u):
                return False
    return True


# ---------------------------------------------------------------------------
# Product-preservation checking
# ---------------------------------------------------------------------------

def is_algebra_automorphism(candidate: Candidate, family: FamilySpec, i: int,
                            budget: int = DEFAULT_PAIR_BUDGET) -> bool:
    """Exhaustively check that a monomial basis map preserves all basis products.

    The candidate maps every basis label to (coefficient, basis label); the
    index map must be a bijection that carries the product table to itself,
    and c_u c_v = c_w must hold for every nonzero product chi_u chi_v = chi_w.
    Exact arithmetic throughout.
    """
    labels = family.basis(i)
    if set(candidate) != set(labels):
        raise ValueError("candidate must be defined on the full basis")
    images = [candidate[u][1] for u in labels]
    if len(set(images)) != len(images) or set(images) != set(labels):
        return False
    if len(labels) ** 2 > budget:
        raise BudgetExceededError(
            f"automorphism check needs {len(labels)**2} pairs, over budget {budget}")
    table = family.product_table(i)
    pos = family.basis_position(i)
    if not carries_table(np.array([pos[m] for m in images]), table, table):
        return False
    # the coefficients take few distinct values: multiply those exactly once,
    # then compare the codes of c_u c_v and c_w on every nonzero entry
    values = list(dict.fromkeys(candidate[u][0] for u in labels))
    code = {c: k for k, c in enumerate(values)}
    codes = np.array([code[candidate[u][0]] for u in labels])
    products = np.array([[code.get(x * y, -1) for y in values] for x in values])
    u, v = np.nonzero(table >= 0)
    return bool((products[codes[u], codes[v]] == codes[table[u, v]]).all())
