"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All arithmetic is exact, so every comparison is exact equality.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np

from nortonalg import cayley
from nortonalg.cayley import spectrum, verify_all_eigenvectors
from nortonalg.cyclotomic import Cyclotomic, root_power
from nortonalg.families import make_family
from nortonalg.norton import (
    AlgebraVector,
    classified_idempotents,
    closed_form_product,
    eta,
    eta_relations_check,
    find_identity,
    nilpotents_order2_classified,
    primitivity_facts_check,
    shipped_isomorphism_checks,
    verify_isomorphism,
    verify_oracle_space,
)
from nortonalg.trees import (
    a000975,
    catalan,
    count_classes_exact,
    count_classes_witness,
    ominus_equivalence_check,
)
from nortonalg import autos
from reference import (
    as_matrix,
    integer_eigenvalue,
    reference_index,
    symmetric_difference_feasible,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} ({title}): FAIL")
        raise
    print(f"CRITERION {number} ({title}): PASS")


def _criterion1_instances():
    fams = []
    for n in range(1, 5):
        for e in range(2, 6):
            fams.append(make_family("hamming", n=n, e=e))
    for n in range(1, 9):
        fams.append(make_family("hypercube", n=n))
    for n in range(2, 9):
        fams.append(make_family("halved_cube", n=n))
    for n in range(3, 9):
        fams.append(make_family("folded_cube", n=n))
    for n in (6, 8):
        fams.append(make_family("folded_half_cube", n=n))
    for q in (2, 3):
        fams.append(make_family("bilinear", q=q, d=2, e=2))
    return fams


def test_criterion_01_spectrum_reproduction():
    with criterion(1, "spectra and adjacency eigen-verification"):
        for fam in _criterion1_instances():
            graph = fam.cayley_graph()
            for i in fam.eigenspaces():
                theta = fam.predicted_eigenvalue(i)
                for u in fam.basis(i):
                    assert integer_eigenvalue(graph, reference_index(fam, u)) == theta, (
                        fam.describe(), i)
            predicted = sorted(
                ((fam.predicted_eigenvalue(i), fam.predicted_dimension(i))
                 for i in fam.eigenspaces()), key=lambda p: -p[0])
            assert spectrum(graph) == predicted, fam.describe()
            assert verify_all_eigenvectors(graph), fam.describe()


def _table(fam, i):
    labels = fam.basis(i)
    return {(a, b): fam.closed_product(i, a, b) for a in labels for b in labels}


def test_criterion_02_example_tables():
    with criterion(2, "worked example tables reproduced entry-for-entry"):
        ham = make_family("hamming", n=2, e=3)
        assert _table(ham, 0) == {(((0, 0)), ((0, 0))): (0, 0)}
        v1 = {((0, 1), (0, 1)): (0, 2), ((0, 2), (0, 2)): (0, 1),
              ((1, 0), (1, 0)): (2, 0), ((2, 0), (2, 0)): (1, 0)}
        got1 = _table(ham, 1)
        for (a, b), c in got1.items():
            assert c == v1.get((a, b)), (a, b)
        v2 = {((1, 1), (1, 1)): (2, 2), ((1, 2), (1, 2)): (2, 1),
              ((2, 1), (2, 1)): (1, 2), ((2, 2), (2, 2)): (1, 1)}
        got2 = _table(ham, 2)
        for (a, b), c in got2.items():
            assert c == v2.get((a, b)), (a, b)

        cube = make_family("hypercube", n=3)
        r, s, t = (1, 2), (1, 3), (2, 3)
        got = _table(cube, 2)
        assert got[(r, r)] is None and got[(s, s)] is None and got[(t, t)] is None
        assert got[(r, s)] == t and got[(s, t)] == r and got[(t, r)] == s

        half = make_family("halved_cube", n=4)
        got = _table(half, 2)
        a, b, c = (1, 2), (1, 3), (1, 4)
        assert got[(a, b)] == c and got[(a, c)] == b and got[(b, c)] == a
        assert got[(a, a)] is None and got[(b, b)] is None and got[(c, c)] is None


def test_product_table_matches_closed_product(monkeypatch):
    # the numpy table builder against the paper's single-pair rule, every entry,
    # and its dense code index against the byte-key lookup it replaces
    spaces = 0
    for fam in _criterion1_instances():
        for i in fam.eigenspaces():
            pos = fam.basis_position(i)
            want = [[-1 if c is None else pos[c] for c in row]
                    for row in ([fam.closed_product(i, a, b) for b in fam.basis(i)]
                                for a in fam.basis(i))]
            table = fam.product_table(i)
            assert table.dtype == np.int32 and table.tolist() == want, (fam.describe(), i)
            with monkeypatch.context() as patch:
                patch.setattr(cayley, "DENSE_CODE_BITS", 0)
                by_bytes = cayley.sum_positions(fam.basis_array(i), fam.modulus,
                                                fam._canonical_rows)
            assert (by_bytes == table).all(), (fam.describe(), i)
            spaces += 1
    assert spaces == 155


def test_criterion_03_oracle_equivalence():
    with criterion(3, "closed form equals projection oracle on all basis pairs"):
        for fam in _criterion1_instances():
            for i in fam.eigenspaces():
                assert verify_oracle_space(fam, i), (fam.describe(), i)


def test_criterion_04_idempotent_suite():
    with criterion(4, "idempotent classification, relations, primitivity, nilpotents"):
        # counts equal the subset enumeration over {1..e-1} excluding size e/2
        for e, expected in ((3, 3), (4, 4), (5, 15)):
            oracle_count = sum(
                1 for size in range(1, e) if 2 * size != e
                for _ in combinations(range(1, e), size))
            assert oracle_count == expected
            assert len(classified_idempotents(e)) == expected

        fam3 = make_family("hamming", n=1, e=3)
        w3 = root_power(3, 1)
        chi = {k: AlgebraVector.basis_vector(fam3, 1, (k,)) for k in (1, 2)}
        assert {idem.vector for idem in classified_idempotents(3)} == {
            chi[1] + chi[2], w3 * chi[1] + w3 * w3 * chi[2], w3 * w3 * chi[1] + w3 * chi[2]}

        fam4 = make_family("hamming", n=1, e=4)
        w4 = root_power(4, 1)
        half = Fraction(1, 2)
        c = {k: AlgebraVector.basis_vector(fam4, 1, (k,)) for k in (1, 2, 3)}
        assert {idem.vector for idem in classified_idempotents(4)} == {
            half * c[2] + half * (c[1] + c[3]),
            half * c[2] - half * (c[1] + c[3]),
            -(half * c[2]) + (w4 * half) * (c[1] - c[3]),
            -(half * c[2]) - (w4 * half) * (c[1] - c[3])}

        for e in range(3, 8):
            assert eta_relations_check(e)
            assert primitivity_facts_check(e)

        for e, count in ((4, 3), (6, 10)):
            reps = nilpotents_order2_classified(e)
            assert len(reps) == count
            for vec in reps:
                assert closed_form_product(vec, vec).is_zero()


def test_criterion_05_unitality():
    with criterion(5, "identity element exists exactly at i = 0"):
        for n in range(1, 4):
            for e in range(2, 5):
                fam = make_family("hamming", n=n, e=e)
                for i in fam.eigenspaces():
                    ident = find_identity(fam, i)
                    if i == 0:
                        assert ident == AlgebraVector.basis_vector(fam, 0, (0,) * n)
                    else:
                        assert ident is None, (n, e, i)


def test_criterion_06_associative_spectrum_exact():
    with criterion(6, "exact associative-spectrum counts"):
        for fam, i in ((make_family("hamming", n=1, e=3), 1),
                       (make_family("hamming", n=2, e=3), 2)):
            for m in range(1, 7):
                rep = count_classes_exact(fam, i, m)
                assert rep.class_count == a000975(m), (fam.describe(), m)
                assert ominus_equivalence_check(fam, i, m), (fam.describe(), m)
        for fam, i in ((make_family("hypercube", n=3), 2),
                       (make_family("hypercube", n=4), 2),
                       (make_family("hamming", n=1, e=4), 1)):
            for m in range(1, 6):
                rep = count_classes_exact(fam, i, m)
                assert rep.mode == "exact"
                assert rep.class_count == catalan(m), (fam.describe(), m)
        for fam, i in ((make_family("hypercube", n=4), 3),
                       (make_family("hypercube", n=3), 1),
                       (make_family("hypercube", n=4), 1)):
            for m in range(1, 7):
                assert count_classes_exact(fam, i, m).class_count == 1


def test_criterion_07_witness_total_nonassociativity():
    with criterion(7, "witness mode separates all tree pairs at m = 6"):
        for fam, i in ((make_family("hamming", n=3, e=3), 2),
                       (make_family("hamming", n=2, e=4), 1)):
            report = count_classes_witness(fam, i, 6, seed=0)
            assert report.mode == "exact", fam.describe()
            assert report.class_count == catalan(6) == 132
            assert report.budget_used <= 10_000


def test_criterion_08_automorphism_suite():
    with criterion(8, "automorphism actions, kernels, and the conjugation identity"):
        for n in range(1, 4):
            for e in range(2, 5):
                fam = make_family("hamming", n=n, e=e)
                rng = random.Random(0)
                for _ in range(100):
                    phi = autos.random_hamming_auto(rng, n, e)
                    for i in fam.eigenspaces():
                        assert autos.is_algebra_automorphism(
                            autos.hamming_candidate(phi, fam, i), fam, i), (n, e, i)

        half5 = make_family("halved_cube", n=5)
        for f in autos.all_signed_perms(5, type_d=True):
            assert autos.is_algebra_automorphism(
                autos.signed_perm_candidate(f, half5, 1), half5, 1)

        half6 = make_family("halved_cube", n=6)
        bad = autos.SignedPermutation((0, 1, 2, 3, 4, 5), (-1, 1, 1, 1, 1, 1))
        candidate = autos.signed_perm_candidate(bad, half6, 2, check_type_d=False)
        assert not autos.is_algebra_automorphism(candidate, half6, 2)

        q3 = make_family("hamming", n=3, e=2)
        assert autos.kernel_check_hamming(q3, 1)["ok"]
        report = autos.kernel_check_hamming(q3, 2)
        assert report["ok"] and len(report["kernel"]) == 2
        assert autos.kernel_check_hamming(make_family("hamming", n=2, e=3), 1)["ok"]

        bil = make_family("bilinear", q=2, d=2, e=2)
        rng = random.Random(0)
        pairs = [(autos.random_gl(rng, 2, 2), autos.random_gl(rng, 2, 2))
                 for _ in range(20)]
        for x_flat in bil.vertices().tolist():
            x = as_matrix(x_flat, bil.cols)
            for a, b in pairs:
                assert autos.conjugation_identity_check(bil, x, a, b)


def test_criterion_09_isomorphism_suite():
    with criterion(9, "shipped algebra isomorphisms verified on all basis pairs"):
        checks = shipped_isomorphism_checks()
        assert len(checks) == 7
        for name, mapping, dom, cod in checks:
            assert verify_isomorphism(mapping, dom, cod), name


def test_criterion_10_combinatorial_lemmas():
    with criterion(10, "symmetric-difference feasibility and character collisions"):
        for n in range(0, 11):
            universe = range(1, n + 1)
            for i in range(0, n + 1):
                achieved = set()
                for s_mask in combinations(universe, i):
                    s = set(s_mask)
                    for t_mask in combinations(universe, i):
                        achieved.add(len(s ^ set(t_mask)))
                for j in range(0, n + 1):
                    assert symmetric_difference_feasible(n, i, j) == (j in achieved), (n, i, j)

        for n in range(2, 9):
            fam = make_family("halved_cube", n=n)
            xs = fam.vertices()
            tables: dict[tuple, list] = {}
            for mask in range(2**n):
                s = tuple(j + 1 for j in range(n) if mask >> j & 1)
                vec = reference_index(fam, s)
                table = tuple(sum(v * x[j] for j, v in enumerate(vec)) % 2 for x in xs)
                tables.setdefault(table, []).append(frozenset(s))
            assert len(tables) == 2 ** (n - 1)
            full = frozenset(range(1, n + 1))
            for sets in tables.values():
                assert len(sets) == 2 and sets[0] ^ sets[1] == full
