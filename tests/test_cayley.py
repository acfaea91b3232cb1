"""Tests for Cayley graph spectra via characters."""

from __future__ import annotations

import numpy as np
import pytest

from nortonalg import cayley
from nortonalg.cayley import (
    CayleyGraph,
    eigenvalue_of_character,
    exponent_matrix,
    integer_eigenvalue,
    spectrum,
    sum_positions,
    verify_all_eigenvectors,
    verify_eigenvector,
)
from nortonalg.cyclotomic import Cyclotomic
from nortonalg.families import make_family
from nortonalg.groups import WordGroup


def test_eigenvalue_examples_hamming23():
    g = make_family("hamming", n=2, e=3).cayley_graph()
    assert eigenvalue_of_character(g, (1, 0)) == Cyclotomic.from_rational(3, 1)
    assert eigenvalue_of_character(g, (0, 0)) == Cyclotomic.from_rational(3, g.degree)
    assert eigenvalue_of_character(g, (1, 1)) == Cyclotomic.from_rational(3, -2)


def test_spectrum_examples():
    assert spectrum(make_family("hamming", n=2, e=3).cayley_graph()) == [
        (4, 1), (1, 4), (-2, 4)]
    assert spectrum(make_family("hypercube", n=3).cayley_graph()) == [
        (3, 1), (1, 3), (-1, 3), (-3, 1)]
    assert spectrum(make_family("bilinear", q=2, d=2, e=2).cayley_graph()) == [
        (9, 1), (1, 9), (-3, 6)]


def test_spectrum_single_edge():
    assert spectrum(make_family("hamming", n=1, e=2).cayley_graph()) == [(1, 1), (-1, 1)]


def test_verify_eigenvector_examples():
    g23 = make_family("hamming", n=2, e=3).cayley_graph()
    assert verify_eigenvector(g23, (1, 0))
    assert verify_eigenvector(g23, (0, 0))
    gq = make_family("bilinear", q=2, d=2, e=2).cayley_graph()
    for u in gq.characters:
        assert verify_eigenvector(gq, u)


def test_verify_all_matches_single():
    for fam in (make_family("hamming", n=2, e=4), make_family("halved_cube", n=5),
                make_family("folded_cube", n=4)):
        g = fam.cayley_graph()
        assert verify_all_eigenvectors(g)
        assert all(verify_eigenvector(g, u) for u in g.characters)


def test_verify_detects_wrong_vector():
    # a non-character vector index (not matching the declared character list)
    fam = make_family("hamming", n=1, e=4)
    g = fam.cayley_graph()
    # chi_1 against the eigenvalue of chi_2: forged by swapping character rows
    forged = CayleyGraph(g.group, g.vertices, g.connection,
                         characters=[(0,), (2,), (1,), (3,)])
    # spectrum is the same multiset, but adjacency application pins each row
    assert verify_eigenvector(forged, (1,))  # still a genuine character
    assert spectrum(forged) == spectrum(g)


def test_exponent_matrix_dtype_holds_modulus():
    g = make_family("hamming", n=1, e=257).cayley_graph()
    exps = exponent_matrix(g)
    assert exps.dtype == np.uint16 and int(exps.max()) == 256
    assert exponent_matrix(make_family("hamming", n=2, e=3).cayley_graph()).dtype == np.uint8


def test_connection_invariants():
    grp = WordGroup(2, 3)
    xs = grp.elements()
    with pytest.raises(ValueError):
        CayleyGraph(grp, xs, [(0, 0)])
    with pytest.raises(ValueError):
        CayleyGraph(grp, xs, [(1, 0)])  # missing inverse (2,0)
    with pytest.raises(ValueError):
        CayleyGraph(grp, xs, [(1, 0), (2, 0), (1, 0)])


def test_integer_eigenvalue_downcast_rejects_nonintegral():
    grp = WordGroup(1, 5)
    xs = grp.elements()
    g = CayleyGraph(grp, xs, [(1,), (4,)])
    # chi_1(S) = w + w^4 is a real algebraic number but not rational at e = 5
    with pytest.raises(ValueError):
        integer_eigenvalue(g, (1,))
    # the batched check reads chi_1(S) at the identity and finds it is no integer
    assert not verify_all_eigenvectors(g)


def test_spectrum_verify_evaluates_each_character_once(monkeypatch):
    calls = []
    real = cayley.eigenvalue_of_character
    monkeypatch.setattr(cayley, "eigenvalue_of_character",
                        lambda graph, u: calls.append(u) or real(graph, u))
    g = make_family("hamming", n=2, e=5).cayley_graph()
    spectrum(g)
    assert verify_all_eigenvectors(g)
    assert sorted(calls) == sorted(g.characters)


def test_sum_positions_independent_of_chunk_size(monkeypatch):
    for kind, opts, i in (("halved_cube", {"n": 6}, 3), ("hamming", {"n": 3, "e": 3}, 2)):
        fam = make_family(kind, **opts)
        rows = fam.basis_array(i)
        whole = sum_positions(rows, fam.modulus, fam._canonical_rows)
        assert (whole == fam.product_table(i)).all()
        # three basis rows of sums per step
        monkeypatch.setattr(cayley, "SUM_CHUNK_BYTES", 3 * rows.size)
        assert (sum_positions(rows, fam.modulus, fam._canonical_rows) == whole).all()
        monkeypatch.undo()


def test_spectrum_descending_and_total():
    for fam in (make_family("folded_half_cube", n=6), make_family("hamming", n=3, e=3)):
        g = fam.cayley_graph()
        spec = spectrum(g)
        evs = [ev for ev, _ in spec]
        assert evs == sorted(evs, reverse=True)
        assert sum(m for _, m in spec) == len(g.vertices)
