"""Constructed automorphism actions on the Norton algebra bases, the check
that a basis-level candidate map is an automorphism (a bijection that
families.carries_table accepts, the one map check that the isomorphisms
share), and the seeded suite that samples and checks the actions of a
family (autocheck).

Each action maps int64 index rows by apply(family, rows) -> (images, k): a
gather of columns, or on bilinear rows a d x d or e x e matrix product; the
character chi_u goes to w^k chi_image, with w of order family.modulus.  Its
candidate on a Space (made by candidate alone) is an int array of shape
dim x 2 over the space's basis: row k holds the basis position of the image
of the k-th basis character (-1 off the basis) and the exponent of its
coefficient; on the cubes a sign -1 is the exponent 1.  Images are put in
basis form (family._basis_form) and looked up among the basis rows; k mod 2
is unchanged by the halved cube's complement, as a type-D sign has even weight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations, product
from math import factorial, gcd

# the package's modules before numpy, families first: compiled from source, their
# scratch is freed before numpy loads and reused by it (tests/test_load_order.py)
from .families import (DEFAULT_VERTEX_BUDGET, BilinearFamily, CubeFamily, FamilySpec,
                       HammingFamily, Space, _words, carries_table, fq_reduce)
from .cayley import _chunks, row_finder
from .errors import DEFAULT_AUTOCHECK_BUDGET, BudgetExceededError, size_text
from .groups import Word

import numpy as np

Candidate = np.ndarray


def candidate(auto, space: Space) -> Candidate:
    """The candidate of an action on a space, from auto.apply on int64 steps of the basis rows."""
    family, find = space.family, row_finder(space.rows, space.modulus)
    out = np.empty((space.dim, 2), dtype=np.int64)
    for lo, hi in _chunks(space.dim, 4 * 8 * family.length):  # rows, images, form, remainder
        images, out[lo:hi, 1] = auto.apply(family, space.rows[lo:hi].astype(np.int64))
        out[lo:hi, 0] = find(family._basis_form(images))
    return out


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

    def __str__(self) -> str:
        return f"(a={self.a}, b={self.b}, sigma={self.sigma})"

    @classmethod
    def draw(cls, rng: random.Random, family: HammingFamily, k: int) -> "HammingAuto":
        n, e = family.n, family.e
        if e - 1 > DEFAULT_VERTEX_BUDGET:  # a space past V_0 is refused by its table first
            raise BudgetExceededError(f"drawing an action of {family.describe()} lists the units"
                                      f" among {e - 1} residues, over the budget"
                                      f" {DEFAULT_VERTEX_BUDGET}")
        a = tuple(rng.randrange(e) for _ in range(n))
        b = tuple(rng.choice(units_mod(e)) for _ in range(n))
        sigma = list(range(n))
        rng.shuffle(sigma)
        return cls(a, b, tuple(sigma), e)

    def apply(self, family: HammingFamily, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows v = b.sigma(u) and the exponents a.v mod e."""
        if not isinstance(family, HammingFamily) or (family.n, family.e) != (len(self.a), self.e):
            raise ValueError("automorphism parameters do not match the family")
        images = rows[:, list(self.sigma)] * np.array(self.b) % self.e
        return images, images @ np.array(self.a) % self.e


@cache  # listed once for all the samples and the kernel check
def units_mod(e: int) -> tuple[int, ...]:
    return tuple(v for v in range(1, e) if gcd(v, e) == 1)


def kernel_check_hamming(space: Space) -> dict:
    """Find all (a, b, sigma) acting as the identity on the V_i basis and
    compare with the predicted kernel: trivial for e >= 3, i >= 1, and
    {identity, (all-ones, 1, id)} for e = 2 with 1 <= i < n even.

    (a, b, sigma) fixes every chi_u exactly when (b, sigma) fixes every index
    row u and a.u = 0 mod e on them, so the kernel is the product of those
    pairs and those words.  Column j of b.sigma(u) is b_j u_sigma(j), so for
    each sigma the fixing b_j are found one column at a time."""
    n, e, i = space.family.n, space.modulus, space.i
    if not ((e >= 3 and i >= 1) or (e == 2 and 1 <= i < n)):
        raise ValueError(f"kernel description covers e>=3,i>=1 or e=2,1<=i<n; "
                         f"got e={e}, i={i}, n={n}")
    units = units_mod(e) if n * (e.bit_length() - 1) < 17 else ()
    if not units or e**n + factorial(n) * n * len(units) > 10**5:  # () when e^n >= 2^17 by bits
        raise BudgetExceededError("kernel enumeration too large")
    rows = space.rows.astype(np.int64)  # b_j u_sigma(j) overflows the row dtype
    trivial = _words(e, n)
    for u in rows:  # row by row: the rows x words matrix of hamming(7,4) V_5 is 669 MB
        trivial = trivial[trivial @ u % e == 0]
    fixing = [(b, sigma) for sigma in permutations(range(n))
              for b in product(*([v for v in units if (v * rows[:, s] % e == rows[:, j]).all()]
                                 for j, s in enumerate(sigma)))]
    kernel = [(tuple(a), b, sigma) for a in trivial.tolist() for b, sigma in fixing]
    expected = [((0,) * n, (1,) * n, tuple(range(n)))]  # the identity action
    if e == 2 and i % 2 == 0:
        expected.append(((1,) * n, (1,) * n, tuple(range(n))))
    kernel, expected = sorted(kernel), sorted(expected)
    return {"kernel": kernel, "expected": expected, "ok": kernel == expected}


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
        return self.eps.count(-1) % 2 == 0

    def __str__(self) -> str:
        return f"(sigma={self.sigma}, eps={self.eps})"

    @classmethod
    def draw(cls, rng: random.Random, family: CubeFamily, k: int) -> "SignedPermutation":
        n = family.n
        sigma = list(range(n))
        rng.shuffle(sigma)
        eps = [rng.choice((1, -1)) for _ in range(n)]
        if family.halved and eps.count(-1) % 2:  # type D on the halved cube
            eps[rng.randrange(n)] *= -1
        return cls(tuple(sigma), tuple(eps))

    def apply(self, family: CubeFamily, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """v[sigma[j]] = u[j] and the exponent v.[eps == -1] mod 2.  Halved-cube
        targets require a type D map, for which the sign is class-invariant."""
        if not isinstance(family, CubeFamily) or family.folded:
            raise ValueError(f"signed permutations act on hypercube or halved_cube, "
                             f"not {family.kind}")
        if family.halved and not self.is_type_d():
            raise ValueError("halved-cube action requires a type-D signed permutation")
        if len(self.sigma) != family.n:
            raise ValueError("automorphism parameters do not match the family")
        images = rows[:, np.argsort(self.sigma)]
        return images, images @ (np.array(self.eps) < 0) % 2


# ---------------------------------------------------------------------------
# Bilinear forms actions
# ---------------------------------------------------------------------------

Matrix = tuple[tuple[int, ...], ...]


def mat_mul(a: Matrix, b: Matrix, q: int) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)) for row in a)


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


def random_matrix(rng: random.Random, rows: int, cols: int, q: int) -> Matrix:
    """A uniform rows x cols matrix over F_q, drawn row by row."""
    return tuple(tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows))


def random_gl(rng: random.Random, n: int, q: int) -> Matrix:
    while True:
        m = random_matrix(rng, n, n, q)
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

    def __str__(self) -> str:
        return f"({self.kind}, {self.matrix})"

    @classmethod
    def draw(cls, rng: random.Random, family: BilinearFamily, k: int) -> "BilinearAuto":
        """Sample k translates, multiplies left or right, as k % 3 is 0, 1 or 2."""
        kind = ("translate", "left", "right")[k % 3]
        if kind == "translate":
            mat = random_matrix(rng, family.d, family.cols, family.q)
        else:
            mat = random_gl(rng, family.d if kind == "left" else family.cols, family.q)
        return cls(kind, mat, family.q)

    def apply(self, family: BilinearFamily, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """On row-major flattened d x e matrices: u translated by x is u with the
        exponent u.x mod q; a left action gives a u, a right one u b^-1, each w^0."""
        if not isinstance(family, BilinearFamily) or self.q != family.q:
            raise ValueError("automorphism parameters do not match the family")
        d, e = family.d, family.cols
        if self.kind == "translate":
            x = [v % self.q for row in self.matrix for v in row]
            if len(x) != family.length:
                raise ValueError("translation requires a d x e matrix")
            return rows, rows @ np.array(x) % self.q
        size, shape = (d, "a d x d") if self.kind == "left" else (e, "an e x e")
        if len(self.matrix) != size:
            raise ValueError(f"{self.kind} action requires {shape} matrix")
        mats = rows.reshape(-1, d, e)
        images = (np.array(self.matrix) @ mats if self.kind == "left"
                  else mats @ np.array(self.inverse)) % self.q
        return images.reshape(len(rows), -1), np.zeros(len(rows), dtype=np.int64)


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
    for space in map(family.space, range(1, family.diameter + 1)):
        composite = candidate(chain[0], space)
        for auto in chain[1:]:
            composite = compose_candidates(candidate(auto, space), composite, q)
        if not np.array_equal(composite, candidate(rhs_auto, space)):
            return False
    return True


# ---------------------------------------------------------------------------
# Product-preservation checking
# ---------------------------------------------------------------------------

def is_algebra_automorphism(candidate: Candidate, space: Space) -> bool:
    """Exhaustively check that a monomial basis map preserves all basis products:
    its positions are a bijection of the basis, and one pass of
    families.carries_table finds that it carries the table to itself, with
    exp[u] + exp[v] = exp[w] mod the modulus on every product chi_u chi_v = chi_w."""
    if np.shape(candidate) != (space.dim, 2):
        raise ValueError("candidate must be defined on the full basis")
    return (np.array_equal(np.sort(candidate[:, 0]), np.arange(space.dim))
            and carries_table(candidate, space, space))


# ---------------------------------------------------------------------------
# The seeded autocheck suite
# ---------------------------------------------------------------------------

# kind: the class of its actions, whose draw(rng, family, k) gives the k-th sample
ACTIONS = {"hamming": HammingAuto, "hypercube": SignedPermutation,
           "halved_cube": SignedPermutation, "bilinear": BilinearAuto}


def sample_price(space: Space, samples: int) -> int:
    """autocheck's work on space: each sample maps the dim x length basis rows
    and checks the dim^2 products, and on a bilinear family each conjugation
    identity maps the basis rows of every V_i, i >= 1, six times."""
    family = space.family
    price = samples * (space.dim * family.length + space.dim**2)
    if isinstance(family, BilinearFamily):
        dims = sum(map(family.predicted_dimension, range(1, family.diameter + 1)))
        price += samples * 6 * dims * family.length
    return price


def autocheck(family: FamilySpec, i: int, samples: int, seed: int,
              budget: int = DEFAULT_AUTOCHECK_BUDGET) -> dict:
    """Check samples actions of an ACTIONS kind on V_i, drawn by
    random.Random(seed); the Hamming kernel, None where it is not covered or
    over its budget; and on a bilinear family the conjugation identity on
    samples triples drawn by random.Random(seed + 1).  Refused before the
    table is built or any action drawn when the sample_price is over budget."""
    action, space = ACTIONS[family.kind], family.space(i)
    if samples:  # the table's size and the basis rows, then the price, before any draw
        space.check_table_size()
        space.rows
        price = sample_price(space, samples)
        if price > budget:
            raise BudgetExceededError(f"autocheck of {size_text(samples)} samples on {space.name}"
                                      f" takes {size_text(price)} steps (budget {budget})")
        space.table
    rng = random.Random(seed)
    results = []
    for k in range(samples):
        auto = action.draw(rng, family, k)
        results.append({"sample": k, "auto": str(auto),
                        "ok": is_algebra_automorphism(candidate(auto, space), space)})
    kernel = None
    if isinstance(family, HammingFamily):
        try:
            found = kernel_check_hamming(space)
            kernel = {key: [repr(k) for k in found[key]] for key in ("kernel", "expected")}
            kernel["ok"] = found["ok"]
        except (ValueError, BudgetExceededError):
            pass
    conjugation = None
    if isinstance(family, BilinearFamily) and samples:
        rng, q, d, e = random.Random(seed + 1), family.q, family.d, family.cols
        conjugation = all(conjugation_identity_check(
            family, random_matrix(rng, d, e, q), random_gl(rng, d, q), random_gl(rng, e, q))
            for _ in range(samples))
    all_ok = (all(r["ok"] for r in results) and (kernel is None or kernel["ok"])
              and conjugation in (None, True))
    return {"results": results, "kernel": kernel, "conjugation_identity": conjugation,
            "all_ok": all_ok}
