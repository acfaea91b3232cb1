"""Tests for automorphism actions and the product-preservation checker.

A candidate is a dim x 2 array over the basis: image position, exponent of
the coefficient w^exp with w of order family.modulus."""

from __future__ import annotations

import random
from itertools import permutations, product

import numpy as np
import pytest

from nortonalg.families import make_family
from nortonalg.autos import (
    BilinearAuto,
    HammingAuto,
    SignedPermutation,
    all_signed_perms,
    bilinear_candidate,
    compose_candidates,
    compose_hamming,
    compose_signed,
    conjugation_identity_check,
    hamming_candidate,
    identity_auto,
    is_algebra_automorphism,
    kernel_check_hamming,
    mat_identity,
    mat_inv,
    mat_mul,
    random_gl,
    random_hamming_auto,
    random_signed_perm,
    signed_perm_candidate,
)
from reference import as_matrix, flatten, support, weight, word_dot


def identity_candidate(fam, i):
    return np.column_stack((np.arange(len(fam.basis(i))), np.zeros(len(fam.basis(i)), int)))


def image(fam, i, candidate, label):
    """(exponent, image label) of one basis label under a candidate."""
    pos, exp = candidate[fam.basis_position(i)[label]]
    return int(exp), fam.basis(i)[pos]


def test_identity_action():
    fam = make_family("hamming", n=2, e=3)
    ident = identity_auto(2, 3)
    assert np.array_equal(hamming_candidate(ident, fam, 1), identity_candidate(fam, 1))


def test_translation_action_e3():
    fam = make_family("hamming", n=1, e=3)
    phi = HammingAuto((1,), (1,), (0,), 3)
    assert fam.basis(1) == [(1,), (2,)]
    assert hamming_candidate(phi, fam, 1).tolist() == [[0, 1], [1, 2]]


def test_all_ones_translation_trivial_on_even_weight():
    fam = make_family("hamming", n=4, e=2)
    phi = HammingAuto((1, 1, 1, 1), (1, 1, 1, 1), (0, 1, 2, 3), 2)
    assert np.array_equal(hamming_candidate(phi, fam, 2), identity_candidate(fam, 2))


def test_compose_examples():
    phi = HammingAuto((1, 2), (1, 2), (1, 0), 3)
    ident = identity_auto(2, 3)
    assert compose_hamming(phi, ident) == phi
    assert compose_hamming(ident, phi) == phi
    s1 = HammingAuto((0, 0), (1, 1), (1, 0), 3)
    s2 = HammingAuto((0, 0), (1, 1), (1, 0), 3)
    assert compose_hamming(s1, s2).sigma == (0, 1)
    t = HammingAuto((1,), (1,), (0,), 3)
    assert compose_hamming(t, t) == HammingAuto((2,), (1,), (0,), 3)
    fam = make_family("hamming", n=1, e=3)
    with pytest.raises(ValueError):  # the inner map must stay on the basis
        compose_candidates(identity_candidate(fam, 1), np.array([[-1, 0], [1, 0]]), 3)


def test_action_homomorphism_seeded():
    for (n, e, spaces) in ((3, 4, (1, 2)), (2, 3, (1, 2)), (2, 2, (1,)), (1, 5, (1,))):
        fam = make_family("hamming", n=n, e=e)
        rng = random.Random(0)
        for _ in range(100):
            phi = random_hamming_auto(rng, n, e)
            psi = random_hamming_auto(rng, n, e)
            comp = compose_hamming(phi, psi)
            for i in spaces:
                composed = compose_candidates(hamming_candidate(phi, fam, i),
                                              hamming_candidate(psi, fam, i), e)
                assert np.array_equal(hamming_candidate(comp, fam, i), composed)


def test_hamming_autos_preserve_products():
    rng = random.Random(1)
    for (n, e) in ((2, 3), (3, 3), (2, 4)):
        fam = make_family("hamming", n=n, e=e)
        for _ in range(20):
            phi = random_hamming_auto(rng, n, e)
            for i in fam.eigenspaces():
                assert is_algebra_automorphism(hamming_candidate(phi, fam, i), fam, i)


def test_support_preserved():
    fam = make_family("hamming", n=3, e=4)
    rng = random.Random(2)
    for _ in range(20):
        phi = random_hamming_auto(rng, 3, 4)
        candidate = hamming_candidate(phi, fam, 2)
        for u in fam.basis(2):
            _, img = image(fam, 2, candidate, u)
            moved = sorted(j + 1 for j in range(3) if u[phi.sigma[j]])
            assert moved == list(support(img))
            assert weight(img) == weight(u)


def test_invalid_hamming_auto():
    with pytest.raises(ValueError):
        HammingAuto((0, 0), (2, 1), (0, 1), 4)  # 2 is not a unit mod 4
    with pytest.raises(ValueError):
        HammingAuto((0, 0), (1, 1), (0, 0), 4)


def test_kernel_checks():
    q3 = make_family("hamming", n=3, e=2)
    r1 = kernel_check_hamming(q3, 1)
    assert r1["ok"] and len(r1["kernel"]) == 1
    r2 = kernel_check_hamming(q3, 2)
    assert r2["ok"] and len(r2["kernel"]) == 2
    h23 = make_family("hamming", n=2, e=3)
    r3 = kernel_check_hamming(h23, 1)
    assert r3["ok"] and r3["kernel"] == [((0, 0), (1, 1), (0, 1))]
    with pytest.raises(ValueError):
        kernel_check_hamming(h23, 0)


def test_factored_kernel_equals_enumerated():
    # every (a, b, sigma) whose candidate is the identity, one at a time
    for n, e, i in ((3, 2, 1), (3, 2, 2), (4, 2, 2), (2, 3, 1), (2, 3, 2), (3, 3, 1),
                    (2, 4, 1), (2, 4, 2), (2, 5, 1)):
        fam = make_family("hamming", n=n, e=e)
        ident = identity_candidate(fam, i)
        units = [v for v in range(1, e) if np.gcd(v, e) == 1]
        enumerated = sorted(
            (a, b, sigma)
            for a in product(range(e), repeat=n) for b in product(units, repeat=n)
            for sigma in permutations(range(n))
            if np.array_equal(hamming_candidate(HammingAuto(a, b, sigma, e), fam, i), ident))
        assert kernel_check_hamming(fam, i)["kernel"] == enumerated, (n, e, i)


def test_signed_perm_action_examples():
    cube = make_family("hypercube", n=3)
    ident = SignedPermutation((0, 1, 2), (1, 1, 1))
    assert np.array_equal(signed_perm_candidate(ident, cube, 2), identity_candidate(cube, 2))
    swap12 = SignedPermutation((1, 0, 2), (1, 1, 1))
    assert image(cube, 2, signed_perm_candidate(swap12, cube, 2), (1, 3)) == (0, (2, 3))
    negate3 = SignedPermutation((0, 1, 2), (1, 1, -1))
    assert image(cube, 2, signed_perm_candidate(negate3, cube, 2), (1, 3)) == (1, (1, 3))


def test_signed_perm_composition_is_action():
    cube = make_family("hypercube", n=4)
    rng = random.Random(3)
    for _ in range(100):
        f = random_signed_perm(rng, 4)
        g = random_signed_perm(rng, 4)
        comp = compose_signed(f, g)
        composed = compose_candidates(signed_perm_candidate(f, cube, 2),
                                      signed_perm_candidate(g, cube, 2), 2)
        assert np.array_equal(signed_perm_candidate(comp, cube, 2), composed)


def test_signed_perms_on_hypercube_are_automorphisms():
    cube = make_family("hypercube", n=4)
    rng = random.Random(4)
    for _ in range(25):
        f = random_signed_perm(rng, 4)
        for i in cube.eigenspaces():
            assert is_algebra_automorphism(signed_perm_candidate(f, cube, i), cube, i)


def test_type_d_on_halved_cube():
    half = make_family("halved_cube", n=5)
    count = 0
    for f in all_signed_perms(5, type_d=True):
        count += 1
        assert is_algebra_automorphism(signed_perm_candidate(f, half, 1), half, 1)
    assert count == 2**4 * 120


def test_non_type_d_rejected_and_fails():
    half = make_family("halved_cube", n=6)
    f = SignedPermutation((0, 1, 2, 3, 4, 5), (-1, 1, 1, 1, 1, 1))
    assert not f.is_type_d()
    with pytest.raises(ValueError):
        signed_perm_candidate(f, half, 2)
    candidate = signed_perm_candidate(f, half, 2, check_type_d=False)
    # f fixes chi_56 = chi_12 * chi_34 but negates chi_12, so preservation fails
    assert image(half, 2, candidate, (5, 6)) == (0, (5, 6))
    assert image(half, 2, candidate, (1, 2)) == (1, (1, 2))
    assert not is_algebra_automorphism(candidate, half, 2)


def test_signed_perm_rejects_other_families():
    for fam in (make_family("folded_cube", n=4), make_family("folded_half_cube", n=8)):
        f = SignedPermutation(tuple(range(fam.n)), (1,) * fam.n)
        with pytest.raises(ValueError):
            signed_perm_candidate(f, fam, 1)
    with pytest.raises(ValueError):  # a signed permutation of 3 positions on Q_4
        signed_perm_candidate(SignedPermutation((0, 1, 2), (1, 1, 1)),
                              make_family("hypercube", n=4), 1)


def test_matrix_helpers():
    assert mat_mul(((1, 1), (0, 1)), ((1, 0), (1, 1)), 2) == ((0, 1), (1, 1))
    assert mat_inv(((1, 1), (0, 1)), 2) == ((1, 1), (0, 1))
    assert mat_inv(((1, 1), (1, 1)), 2) is None
    assert mat_identity(2) == ((1, 0), (0, 1))


def test_bilinear_action_examples():
    fam = make_family("bilinear", q=2, d=2, e=2)
    zero_translate = BilinearAuto("translate", ((0, 0), (0, 0)), 2)
    left_id = BilinearAuto("left", mat_identity(2), 2)
    assert np.array_equal(bilinear_candidate(zero_translate, fam, 1), identity_candidate(fam, 1))
    assert np.array_equal(bilinear_candidate(left_id, fam, 1), identity_candidate(fam, 1))
    tr = BilinearAuto("translate", ((1, 0), (0, 0)), 2)
    candidate = bilinear_candidate(tr, fam, 1)
    for u in fam.basis(1):
        assert image(fam, 1, candidate, u) == (u[0], u)  # the sign (-1)^u[0]


def test_bilinear_actions_are_automorphisms():
    rng = random.Random(5)
    for q in (2, 3):
        fam = make_family("bilinear", q=q, d=2, e=2)
        for _ in range(8):
            autos = [
                BilinearAuto("translate", tuple(tuple(rng.randrange(q) for _ in range(2))
                                                for _ in range(2)), q),
                BilinearAuto("left", random_gl(rng, 2, q), q),
                BilinearAuto("right", random_gl(rng, 2, q), q),
            ]
            for auto in autos:
                for i in (1, 2):
                    assert is_algebra_automorphism(bilinear_candidate(auto, fam, i), fam, i)


def test_left_right_actions_commute():
    rng = random.Random(6)
    fam = make_family("bilinear", q=3, d=2, e=2)
    for _ in range(10):
        a = random_gl(rng, 2, 3)
        b = random_gl(rng, 2, 3)
        left = BilinearAuto("left", a, 3)
        right = BilinearAuto("right", b, 3)
        lc, rc = bilinear_candidate(left, fam, 1), bilinear_candidate(right, fam, 1)
        assert np.array_equal(compose_candidates(rc, lc, 3), compose_candidates(lc, rc, 3))


def test_conjugation_identity():
    fam = make_family("bilinear", q=2, d=2, e=2)
    rng = random.Random(7)
    xs = fam.vertices().tolist()
    for x_flat in xs[:6]:
        x = as_matrix(x_flat, fam.cols)
        for _ in range(4):
            a = random_gl(rng, 2, 2)
            b = random_gl(rng, 2, 2)
            assert conjugation_identity_check(fam, x, a, b)


def test_singular_matrices_rejected():
    fam = make_family("bilinear", q=2, d=2, e=2)
    singular = ((1, 1), (1, 1))
    with pytest.raises(ValueError):
        BilinearAuto("left", singular, 2)
    with pytest.raises(ValueError):
        BilinearAuto("right", singular, 2)
    with pytest.raises(ValueError):  # built over F_3, applied over F_2
        bilinear_candidate(BilinearAuto("left", mat_identity(2), 3), fam, 1)
    with pytest.raises(ValueError):  # a right action needs an e x e matrix
        bilinear_candidate(BilinearAuto("right", mat_identity(3), 2), fam, 1)
    with pytest.raises(ValueError):
        conjugation_identity_check(fam, mat_identity(2), singular, mat_identity(2))


def test_is_algebra_automorphism_rejects_non_bijection():
    fam = make_family("hamming", n=2, e=3)
    candidate = np.zeros((len(fam.basis(1)), 2), dtype=int)  # every image is basis[0]
    assert not is_algebra_automorphism(candidate, fam, 1)
    with pytest.raises(ValueError):
        is_algebra_automorphism(candidate[:-1], fam, 1)
    # every map carries the all-zero table of this space; only bijections pass
    half = make_family("halved_cube", n=6)
    assert (half.product_table(3) == -1).all()
    assert is_algebra_automorphism(identity_candidate(half, 3), half, 3)
    assert not is_algebra_automorphism(np.zeros((10, 2), dtype=int), half, 3)


def test_is_algebra_automorphism_detects_bad_coefficient():
    fam = make_family("hamming", n=1, e=3)
    # chi_1 * chi_1 = chi_2 forces coeff(chi_2) = coeff(chi_1)^2 = w^2, not 1
    assert not is_algebra_automorphism(np.array([[0, 1], [1, 0]]), fam, 1)
    assert is_algebra_automorphism(np.array([[0, 1], [1, 2]]), fam, 1)


# ---------------------------------------------------------------------------
# The array candidates against per-label formulas and a pair-by-pair check
# ---------------------------------------------------------------------------

def per_label_candidate(fam, i, image_of):
    """Candidate array from a map label -> (exponent, image label)."""
    pos = fam.basis_position(i)
    return np.array([[pos.get(img, -1), exp] for exp, img in map(image_of, fam.basis(i))])


def hamming_image(phi):
    def image_of(u):
        img = tuple(phi.b[j] * u[phi.sigma[j]] % phi.e for j in range(len(u)))
        return sum(a * v for a, v in zip(phi.a, img)) % phi.e, img
    return image_of


def signed_image(f, fam):
    def image_of(subset):
        img = frozenset(f.sigma[j - 1] + 1 for j in subset)
        return sum(f.eps[k - 1] == -1 for k in img) % 2, fam.canonical_label(img)
    return image_of


def bilinear_image(auto, fam):
    q = fam.q

    def image_of(u):
        if auto.kind == "translate":
            return word_dot(flatten(auto.matrix, q), u, q), u
        if auto.kind == "left":
            return 0, flatten(mat_mul(auto.matrix, as_matrix(u, fam.cols), q), q)
        return 0, flatten(mat_mul(as_matrix(u, fam.cols), auto.inverse, q), q)
    return image_of


def seeded_autos(fam, rng, count):
    """(candidate builder, per-label image map) pairs of random automorphisms."""
    out = []
    for k in range(count):
        if fam.kind == "hamming":
            phi = random_hamming_auto(rng, fam.n, fam.e)
            out.append((lambda i, phi=phi: hamming_candidate(phi, fam, i), hamming_image(phi)))
        elif fam.kind in ("hypercube", "halved_cube"):
            f = random_signed_perm(rng, fam.n, type_d=fam.kind == "halved_cube")
            out.append((lambda i, f=f: signed_perm_candidate(f, fam, i), signed_image(f, fam)))
        else:
            kind = ("translate", "left", "right")[k % 3]
            mat = (tuple(tuple(rng.randrange(fam.q) for _ in range(fam.cols))
                         for _ in range(fam.d)) if kind == "translate"
                   else random_gl(rng, fam.d if kind == "left" else fam.cols, fam.q))
            auto = BilinearAuto(kind, mat, fam.q)
            out.append((lambda i, auto=auto: bilinear_candidate(auto, fam, i),
                        bilinear_image(auto, fam)))
    return out


FAMILIES = [
    make_family("hamming", n=3, e=4), make_family("hamming", n=3, e=2),
    make_family("hypercube", n=5), make_family("halved_cube", n=6),
    make_family("halved_cube", n=5), make_family("bilinear", q=3, d=2, e=2),
    make_family("bilinear", q=2, d=2, e=3),
]


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.describe())
def test_candidates_equal_per_label_formulas(fam):
    for build, image_of in seeded_autos(fam, random.Random(11), 6):
        for i in fam.eigenspaces():
            assert np.array_equal(build(i), per_label_candidate(fam, i, image_of)), i


def preserves_products(candidate, fam, i):
    """Pair-by-pair reference of is_algebra_automorphism, from closed_product."""
    labels = fam.basis(i)
    pos, exp = candidate[:, 0].tolist(), candidate[:, 1].tolist()
    if sorted(pos) != list(range(len(labels))):
        return False
    for a, b in product(range(len(labels)), repeat=2):
        w = fam.closed_product(i, labels[a], labels[b])
        img = fam.closed_product(i, labels[pos[a]], labels[pos[b]])
        if w is None or img is None:
            if w != img:
                return False
            continue
        k = fam.basis_position(i)[w]
        if img != labels[pos[k]] or (exp[a] + exp[b] - exp[k]) % fam.modulus:
            return False
    return True


@pytest.mark.parametrize("fam, i", [(make_family("hamming", n=2, e=4), 1),
                                    (make_family("hamming", n=3, e=3), 2),
                                    (make_family("hypercube", n=4), 2),
                                    (make_family("halved_cube", n=6), 2),
                                    (make_family("halved_cube", n=8), 4),
                                    (make_family("bilinear", q=2, d=2, e=2), 1)],
                         ids=lambda v: v.describe() if hasattr(v, "describe") else str(v))
def test_one_change_is_rejected(fam, i):
    table = fam.product_table(i)
    dim = len(table)
    for build, _ in seeded_autos(fam, random.Random(12), 3):
        valid = build(i)
        assert is_algebra_automorphism(valid, fam, i) and preserves_products(valid, fam, i)

        off_basis = valid.copy()
        off_basis[dim // 2, 0] = -1
        assert not is_algebra_automorphism(off_basis, fam, i)

        # a factor u of some chi_u chi_v = chi_w with u not in {v, w}
        u = next(u for u, v in zip(*np.nonzero(table >= 0)) if table[u, v] not in (u, v))
        bumped = valid.copy()
        bumped[u, 1] = (bumped[u, 1] + 1) % fam.modulus
        assert not is_algebra_automorphism(bumped, fam, i)

        # some swaps give another automorphism; the reference decides which
        rejected = 0
        for b in range(1, dim):
            swapped = valid.copy()
            swapped[[0, b], 0] = swapped[[b, 0], 0]
            ok = is_algebra_automorphism(swapped, fam, i)
            assert ok == preserves_products(swapped, fam, i), b
            rejected += not ok
        assert rejected
