"""Tests for automorphism actions and the product-preservation checker."""

from __future__ import annotations

import random

import pytest

from nortonalg.cyclotomic import Cyclotomic, root_power
from nortonalg.families import make_family
from nortonalg.autos import (
    BilinearAuto,
    HammingAuto,
    SignedPermutation,
    all_signed_perms,
    apply_bilinear_auto,
    apply_hamming_auto,
    apply_signed_perm,
    bilinear_candidate,
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


def test_identity_action():
    fam = make_family("hamming", n=2, e=3)
    ident = identity_auto(2, 3)
    for u in fam.basis(1):
        assert apply_hamming_auto(ident, fam, 1, u) == (Cyclotomic.one(3), u)


def test_translation_action_e3():
    fam = make_family("hamming", n=1, e=3)
    phi = HammingAuto((1,), (1,), (0,), 3)
    assert apply_hamming_auto(phi, fam, 1, (1,)) == (root_power(3, 1), (1,))
    assert apply_hamming_auto(phi, fam, 1, (2,)) == (root_power(3, 2), (2,))


def test_all_ones_translation_trivial_on_even_weight():
    fam = make_family("hamming", n=4, e=2)
    phi = HammingAuto((1, 1, 1, 1), (1, 1, 1, 1), (0, 1, 2, 3), 2)
    for u in fam.basis(2):
        assert apply_hamming_auto(phi, fam, 2, u) == (Cyclotomic.one(2), u)


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


def test_action_homomorphism_seeded():
    for (n, e, spaces) in ((3, 4, (1, 2)), (2, 3, (1, 2)), (2, 2, (1,)), (1, 5, (1,))):
        fam = make_family("hamming", n=n, e=e)
        rng = random.Random(0)
        for _ in range(100):
            phi = random_hamming_auto(rng, n, e)
            psi = random_hamming_auto(rng, n, e)
            comp = compose_hamming(phi, psi)
            for i in spaces:
                for u in fam.basis(i):
                    c1, v = apply_hamming_auto(psi, fam, i, u)
                    c2, w = apply_hamming_auto(phi, fam, i, v)
                    assert apply_hamming_auto(comp, fam, i, u) == (c1 * c2, w)


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
        for u in fam.basis(2):
            _, image = apply_hamming_auto(phi, fam, 2, u)
            moved = sorted(j + 1 for j in range(3) if u[phi.sigma[j]])
            assert moved == list(fam.group.support(image))
            assert fam.group.weight(image) == fam.group.weight(u)


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


def test_signed_perm_action_examples():
    cube = make_family("hypercube", n=3)
    ident = SignedPermutation((0, 1, 2), (1, 1, 1))
    for s in cube.basis(2):
        assert apply_signed_perm(ident, cube, 2, s) == (Cyclotomic.one(2), s)
    swap12 = SignedPermutation((1, 0, 2), (1, 1, 1))
    assert apply_signed_perm(swap12, cube, 2, (1, 3)) == (Cyclotomic.one(2), (2, 3))


def test_signed_perm_composition_is_action():
    cube = make_family("hypercube", n=4)
    rng = random.Random(3)
    for _ in range(100):
        f = random_signed_perm(rng, 4)
        g = random_signed_perm(rng, 4)
        comp = compose_signed(f, g)
        for s in cube.basis(2):
            c1, t = apply_signed_perm(g, cube, 2, s)
            c2, r = apply_signed_perm(f, cube, 2, t)
            assert apply_signed_perm(comp, cube, 2, s) == (c1 * c2, r)


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
        apply_signed_perm(f, half, 2, (1, 2))
    candidate = signed_perm_candidate(f, half, 2, check_type_d=False)
    # f fixes chi_56 = chi_12 * chi_34 but negates chi_12, so preservation fails
    assert candidate[(5, 6)] == (Cyclotomic.one(2), (5, 6))
    assert not is_algebra_automorphism(candidate, half, 2)


def test_signed_perm_rejects_other_families():
    fam = make_family("folded_cube", n=4)
    f = SignedPermutation((0, 1, 2, 3), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        apply_signed_perm(f, fam, 1, (1, 2))


def test_matrix_helpers():
    assert mat_mul(((1, 1), (0, 1)), ((1, 0), (1, 1)), 2) == ((0, 1), (1, 1))
    assert mat_inv(((1, 1), (0, 1)), 2) == ((1, 1), (0, 1))
    assert mat_inv(((1, 1), (1, 1)), 2) is None
    assert mat_identity(2) == ((1, 0), (0, 1))


def test_bilinear_action_examples():
    fam = make_family("bilinear", q=2, d=2, e=2)
    zero_translate = BilinearAuto("translate", ((0, 0), (0, 0)), 2)
    left_id = BilinearAuto("left", mat_identity(2), 2)
    for u in fam.basis(1):
        assert apply_bilinear_auto(zero_translate, fam, 1, u) == (Cyclotomic.one(2), u)
        assert apply_bilinear_auto(left_id, fam, 1, u) == (Cyclotomic.one(2), u)
    tr = BilinearAuto("translate", ((1, 0), (0, 0)), 2)
    for u in fam.basis(1):
        coeff, label = apply_bilinear_auto(tr, fam, 1, u)
        assert label == u
        assert coeff == Cyclotomic.from_rational(2, (-1) ** u[0])


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
        for u in fam.basis(1):
            c1, v1 = apply_bilinear_auto(left, fam, 1, u)
            c2, w1 = apply_bilinear_auto(right, fam, 1, v1)
            c3, v2 = apply_bilinear_auto(right, fam, 1, u)
            c4, w2 = apply_bilinear_auto(left, fam, 1, v2)
            assert (c1 * c2, w1) == (c3 * c4, w2)


def test_conjugation_identity():
    fam = make_family("bilinear", q=2, d=2, e=2)
    rng = random.Random(7)
    xs = fam.vertices()
    for x_flat in xs[:6]:
        x = fam.group.as_matrix(x_flat)
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
        apply_bilinear_auto(BilinearAuto("left", mat_identity(2), 3), fam, 1, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        conjugation_identity_check(fam, mat_identity(2), singular, mat_identity(2))


def test_is_algebra_automorphism_rejects_non_bijection():
    fam = make_family("hamming", n=2, e=3)
    basis = fam.basis(1)
    candidate = {u: (Cyclotomic.one(3), basis[0]) for u in basis}
    assert not is_algebra_automorphism(candidate, fam, 1)


def test_is_algebra_automorphism_detects_bad_coefficient():
    fam = make_family("hamming", n=1, e=3)
    w = root_power(3, 1)
    candidate = {(1,): (w, (1,)), (2,): (Cyclotomic.one(3), (2,))}
    # chi_1 * chi_1 = chi_2 forces coeff(chi_2) = coeff(chi_1)^2 = w^2, not 1
    assert not is_algebra_automorphism(candidate, fam, 1)
