"""Constructed automorphism actions on the Norton algebra bases, and an
exhaustive checker that a basis-level candidate map preserves products.

All constructed actions are monomial: a basis character maps to a root of
unity times a basis character.  A candidate on V_i is an int array of shape
dim x 2 over family.basis(i): row k holds the basis position of the image of
the k-th basis character (-1 if the image is not a basis character) and the
exponent of its coefficient w^exp, where w has order family.modulus; on the
cubes a sign -1 is the exponent 1 mod 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations, product
from math import factorial, gcd

import numpy as np

from .cayley import character_exponents, row_finder
from .errors import BudgetExceededError
from .families import (BilinearFamily, CubeFamily, FamilySpec, HammingFamily, _words,
                       carries_table, fq_reduce)
from .groups import Word

DEFAULT_PAIR_BUDGET = 10**6

Candidate = np.ndarray


def _candidate(rows: np.ndarray, images: np.ndarray, exps: np.ndarray,
               modulus: int) -> Candidate:
    """The candidate sending basis index rows to image index rows (in
    canonical form) with the given coefficient exponents."""
    return np.column_stack((row_finder(rows, modulus)(images), exps % modulus))


def compose_candidates(outer: Candidate, inner: Candidate, modulus: int) -> Candidate:
    """The candidate applying outer after inner: (p_o[p_i], e_i + e_o[p_i])."""
    pos = inner[:, 0]
    if (pos < 0).any():
        raise ValueError("the inner candidate leaves the basis")
    return np.column_stack((outer[pos, 0], (inner[:, 1] + outer[pos, 1]) % modulus))


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
    """chi_u goes to chi_a(u') chi_u' with u' = b.sigma(u), which has the
    support of u moved by sigma."""
    if not isinstance(family, HammingFamily) or (family.n, family.e) != (len(phi.a), phi.e):
        raise ValueError("automorphism parameters do not match the family")
    rows = family.basis_array(i)
    images = rows[:, list(phi.sigma)] * np.array(phi.b) % phi.e
    return _candidate(rows, images, images @ np.array(phi.a), phi.e)


def kernel_check_hamming(family: HammingFamily, i: int) -> dict:
    """Find all (a, b, sigma) acting as the identity on the V_i basis and
    compare with the predicted kernel: trivial for e >= 3, i >= 1, and
    {identity, (all-ones, 1, id)} for e = 2 with 1 <= i < n even.

    (a, b, sigma) fixes every chi_u exactly when (b, sigma) fixes every index
    row u and a.u = 0 mod e on them, so the kernel is the product of those
    pairs and those words."""
    n, e = family.n, family.e
    covered = (e >= 3 and i >= 1) or (e == 2 and 1 <= i < n)
    if not covered:
        raise ValueError(f"kernel description covers e>=3,i>=1 or e=2,1<=i<n; "
                         f"got e={e}, i={i}, n={n}")
    units = [v for v in range(1, e) if gcd(v, e) == 1]
    if e**n * len(units) ** n * factorial(n) > 10**5:
        raise BudgetExceededError("kernel enumeration too large")
    rows = family.basis_array(i)
    words = _words(e, n)
    trivial = words[(character_exponents(rows, words, e) == 0).all(axis=0)].tolist()
    fixing = [(b, sigma) for b in product(units, repeat=n) for sigma in permutations(range(n))
              if np.array_equal(rows[:, list(sigma)] * np.array(b) % e, rows)]
    kernel = [(tuple(a), b, sigma) for a in trivial for b, sigma in fixing]
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


def compose_signed(f: SignedPermutation, g: SignedPermutation) -> SignedPermutation:
    """Composite acting as f after g."""
    sigma = tuple(f.sigma[g.sigma[j]] for j in range(len(f.sigma)))
    f_inv = [0] * len(f.sigma)
    for j, img in enumerate(f.sigma):
        f_inv[img] = j
    eps = tuple(f.eps[j] * g.eps[f_inv[j]] for j in range(len(f.sigma)))
    return SignedPermutation(sigma, eps)


def signed_perm_candidate(f: SignedPermutation, family: FamilySpec, i: int,
                          check_type_d: bool = True) -> Candidate:
    """chi_S goes to eps(sigma(S)) chi_sigma(S), with sigma(S) canonicalized
    on the halved cube.  Halved-cube targets require a type-D signed
    permutation, for which the sign is class-invariant."""
    if not isinstance(family, CubeFamily) or family.folded:
        raise ValueError(f"signed permutations act on hypercube or halved_cube, "
                         f"not {family.kind}")
    if family.halved and check_type_d and not f.is_type_d():
        raise ValueError("halved-cube action requires a type-D signed permutation")
    if len(f.sigma) != family.n:
        raise ValueError("automorphism parameters do not match the family")
    rows = family.basis_array(i)
    images = np.empty_like(rows)
    images[:, list(f.sigma)] = rows
    # before the complement on the halved cube, summed in int64, not the row dtype
    signs = images @ (np.array(f.eps) < 0).astype(np.int64)
    return _candidate(rows, family._canonical_rows(images), signs, 2)


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


def bilinear_candidate(auto: BilinearAuto, family: BilinearFamily, i: int) -> Candidate:
    if not isinstance(family, BilinearFamily) or auto.q != family.q:
        raise ValueError("automorphism parameters do not match the family")
    q = family.q
    rows = family.basis_array(i)
    dim = len(rows)
    if auto.kind == "translate":
        x = np.array([v % q for row in auto.matrix for v in row])
        if len(x) != family.length:
            raise ValueError("translation requires a d x e matrix")
        return np.column_stack((np.arange(dim), rows @ x % q))
    mats = rows.reshape(dim, family.d, family.cols)
    if auto.kind == "left":
        if len(auto.matrix) != family.d:
            raise ValueError("left action requires a d x d matrix")
        images = np.array(auto.matrix) @ mats % q
    else:
        if len(auto.matrix) != family.cols:
            raise ValueError("right action requires an e x e matrix")
        images = mats @ np.array(auto.inverse) % q
    return _candidate(rows, images.reshape(dim, -1), np.zeros(dim, dtype=np.int64), q)


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
        composite = bilinear_candidate(chain[0], family, i)
        for auto in chain[1:]:
            composite = compose_candidates(bilinear_candidate(auto, family, i), composite, q)
        if not np.array_equal(composite, bilinear_candidate(rhs_auto, family, i)):
            return False
    return True


# ---------------------------------------------------------------------------
# Product-preservation checking
# ---------------------------------------------------------------------------

def require_pair_budget(dim: int) -> None:
    """Raise unless checking a candidate on a basis of dim elements fits the pair budget."""
    if dim**2 > DEFAULT_PAIR_BUDGET:
        raise BudgetExceededError(
            f"automorphism check needs {dim**2} pairs, over budget {DEFAULT_PAIR_BUDGET}")


def is_algebra_automorphism(candidate: Candidate, family: FamilySpec, i: int) -> bool:
    """Exhaustively check that a monomial basis map preserves all basis products.

    The positions of the candidate must be a bijection of the basis that
    carries the product table to itself, and the exponents must satisfy
    exp[u] + exp[v] = exp[w] mod the modulus for every nonzero product
    chi_u chi_v = chi_w.  Exact integer arithmetic throughout.
    """
    dim = family.predicted_dimension(i)
    if np.shape(candidate) != (dim, 2):
        raise ValueError("candidate must be defined on the full basis")
    pos, exp = candidate[:, 0], candidate[:, 1]
    if not np.array_equal(np.sort(pos), np.arange(dim)):
        return False
    require_pair_budget(dim)
    table = family.product_table(i)
    if not carries_table(pos, table, table):
        return False
    u, v = np.nonzero(table >= 0)
    return bool(((exp[u] + exp[v] - exp[table[u, v]]) % family.modulus == 0).all())
