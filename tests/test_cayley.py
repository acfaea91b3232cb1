"""Tests for Cayley graph spectra via characters."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from nortonalg import cayley, cyclotomic
from nortonalg.cayley import (
    CayleyGraph,
    character_exponents,
    spectrum,
    sum_positions,
    verify_all_eigenvectors,
)
from nortonalg.cyclotomic import Cyclotomic
from nortonalg.families import make_family
from reference import eigenvalue_of_character, integer_eigenvalue, verify_eigenvector


def _rows(*words):
    """Words as the uint8 rows a CayleyGraph holds."""
    return np.array(words, dtype=np.uint8).reshape(len(words), -1)


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
    forged = CayleyGraph(g.modulus, g.vertices, g.connection,
                         characters=_rows((0,), (2,), (1,), (3,)))
    # spectrum is the same multiset, but adjacency application pins each row
    assert verify_eigenvector(forged, (1,))  # still a genuine character
    assert spectrum(forged) == spectrum(g)


def test_character_exponents_dtype_holds_modulus():
    # uint16 residues below 257 have products up to 256^2, over the uint16 range
    rows = np.arange(257, dtype=np.uint16).reshape(-1, 1)
    exps = character_exponents(rows, rows, 257)
    assert exps.dtype == np.uint16 and int(exps.max()) == 256
    assert (exps == np.outer(np.arange(257), np.arange(257)) % 257).all()
    g = make_family("hamming", n=2, e=3).cayley_graph()
    verts = np.array(g.vertices, dtype=np.uint8)
    assert character_exponents(verts, verts, 3).dtype == np.uint8


def test_connection_invariants():
    xs = make_family("hamming", n=2, e=3).vertices()
    with pytest.raises(ValueError):
        CayleyGraph(3, xs, _rows((0, 0)))
    with pytest.raises(ValueError):
        CayleyGraph(3, xs, _rows((1, 0)))  # missing inverse (2,0)
    with pytest.raises(ValueError):
        CayleyGraph(3, xs, _rows((1, 0), (2, 0), (1, 0)))
    with pytest.raises(ValueError, match="width"):
        CayleyGraph(3, xs, _rows((1,), (2,)))  # rows of another width
    with pytest.raises(ValueError, match="outside the vertex set"):
        CayleyGraph(4, _rows((0,), (2,)), _rows((1,), (3,)))


def test_integer_eigenvalue_downcast_rejects_nonintegral():
    g = CayleyGraph(5, _rows((0,), (1,), (2,), (3,), (4,)), _rows((1,), (4,)))
    # chi_1(S) = w + w^4 is a real algebraic number but not rational at e = 5
    with pytest.raises(ValueError):
        integer_eigenvalue(g, (1,))
    # the batched check reads chi_1(S) at the identity and finds it is no integer
    assert not verify_all_eigenvectors(g)


def test_spectrum_verify_evaluates_each_character_once(monkeypatch):
    # spectrum converts each distinct neighbour-count histogram to Q(w) once,
    # so never more often than there are characters; the verification reads
    # theta_u from integer counts and converts nothing
    calls = []
    real = cyclotomic.from_exponent_counts  # spectrum imports it from there when called
    monkeypatch.setattr(cyclotomic, "from_exponent_counts",
                        lambda e, counts: calls.append(tuple(counts)) or real(e, counts))
    g = make_family("hamming", n=2, e=5).cayley_graph()
    spectrum(g)
    assert len(calls) == len(set(calls)) <= len(g.characters)
    calls.clear()
    assert verify_all_eigenvectors(g)
    assert calls == []


def _forge_character_row(monkeypatch, u, forged):
    """Patch cayley.character_exponents so that the row of u reads forged[x_0]
    at vertex x, whatever vertex rows it is evaluated on."""
    real = cayley.character_exponents

    def patched(u_arr, x_arr, e):
        out = real(u_arr, x_arr, e)
        rows = (u_arr == u).all(axis=1)
        out[rows] = np.array(forged, dtype=out.dtype)[x_arr[:, 0]]
        return out

    monkeypatch.setattr(cayley, "character_exponents", patched)


def test_edge_identity_failure_is_rejected(monkeypatch):
    g = make_family("hamming", n=1, e=4).cayley_graph()
    # (1, 1, -1, -1) is an eigenvector of K_4 (theta = 0) but no character:
    # the edge identity fails at x = s = 1, so it does not certify chi_(1,)
    _forge_character_row(monkeypatch, (1,), (0, 0, 2, 2))
    assert not verify_all_eigenvectors(g)
    # (1, 1, 1, -1) is no eigenvector
    _forge_character_row(monkeypatch, (1,), (0, 0, 0, 2))
    assert not verify_all_eigenvectors(g)


def test_edge_identity_checked_at_every_connection_element(monkeypatch):
    # (1, i, -i, 1) in x_0, constant in x_1, holds the identity along the first
    # connection element (0, 1) and has a rational theta (4), but it is no
    # eigenvector of H(2,4)
    g = make_family("hamming", n=2, e=4).cayley_graph()
    assert g.connection[0].tolist() == [0, 1]
    _forge_character_row(monkeypatch, (1, 0), (0, 1, 3, 0))
    assert not verify_all_eigenvectors(g)


def test_spectrum_and_verdict_independent_of_chunk_size(monkeypatch):
    graphs = [make_family(kind, **opts).cayley_graph() for kind, opts in (
        ("hamming", {"n": 2, "e": 5}), ("folded_cube", {"n": 5}),
        ("bilinear", {"q": 2, "d": 2, "e": 2}))]
    whole = [(spectrum(g), verify_all_eigenvectors(g)) for g in graphs]
    monkeypatch.setattr(cayley, "SUM_CHUNK_BYTES", 7)
    assert [(spectrum(g), verify_all_eigenvectors(g)) for g in graphs] == whole
    assert all(verdict for _, verdict in whole)


def test_batched_spectrum_equals_per_character_eigenvalues():
    # the 41 families of the golden cases
    families = (
        [("hamming", {"n": n, "e": e}) for n in range(1, 5) for e in range(2, 6)]
        + [("hypercube", {"n": n}) for n in range(1, 9)]
        + [("halved_cube", {"n": n}) for n in range(2, 9)]
        + [("folded_cube", {"n": n}) for n in range(3, 9)]
        + [("folded_half_cube", {"n": n}) for n in (6, 8)]
        + [("bilinear", {"q": q, "d": 2, "e": 2}) for q in (2, 3)]
    )
    assert len(families) == 41
    for kind, opts in families:
        g = make_family(kind, **opts).cayley_graph()
        per_character = Counter(integer_eigenvalue(g, u) for u in g.characters)
        assert spectrum(g) == sorted(per_character.items(), key=lambda p: -p[0]), (kind, opts)


def test_neighbor_index_rejects_a_vertex_set_not_closed():
    g = CayleyGraph(4, _rows((0,), (2,)), _rows((2,)))
    verts = np.array(g.vertices, dtype=np.uint8)
    assert cayley._neighbor_index(g, verts).tolist() == [[1], [0]]
    g.connection = _rows((1,), (3,))
    with pytest.raises(ValueError):
        cayley._neighbor_index(g, verts)


def test_sum_positions_independent_of_chunk_size(monkeypatch):
    for kind, opts, i in (("halved_cube", {"n": 6}, 3), ("hamming", {"n": 3, "e": 3}, 2)):
        fam = make_family(kind, **opts)
        rows = fam.basis_array(i)
        whole = sum_positions(rows, fam.modulus, fam._canonical_rows)
        assert (whole == fam.product_table(i)).all()
        # three basis rows of sums per step, then the same by byte keys only
        for name, value in (("SUM_CHUNK_BYTES", 3 * rows.size), ("DENSE_CODE_BITS", 0)):
            monkeypatch.setattr(cayley, name, value)
            assert (sum_positions(rows, fam.modulus, fam._canonical_rows) == whole).all()
        monkeypatch.undo()


def test_reduced_sum_equals_remainder():
    rng = np.random.default_rng(7)
    for m in range(2, 258):  # from m = 129 on, 2m - 2 needs uint16
        dtype = np.min_scalar_type(2 * m - 2)
        a = np.concatenate(([0, m - 1, m - 1, 0], rng.integers(0, m, 60))).astype(dtype)
        b = np.concatenate(([0, m - 1, 1, m - 1], rng.integers(0, m, 60))).astype(dtype)
        got = cayley._reduced_sum(a, b, m)
        assert got.dtype == dtype, m
        assert (got == (a.astype(np.int64) + b) % m).all(), m


def _distinct_rows(rng, count, width, modulus):
    rows = np.unique(rng.integers(0, modulus, (count, width)), axis=0)
    return rows[rng.permutation(len(rows))].astype(np.min_scalar_type(modulus - 1))


@pytest.mark.parametrize("modulus, width, dense", [(2, 22, True), (4, 11, True),
                                                    (2, 23, False), (257, 3, False)])
def test_row_finder_dense_and_byte_key_paths_agree(monkeypatch, modulus, width, dense):
    # 22 code bits are indexed densely, 23 are compared by byte key
    rng = np.random.default_rng(modulus * width)
    rows = _distinct_rows(rng, 300, width, modulus)
    queries = np.concatenate((rows[::-1], rng.integers(0, modulus, (300, width)))).astype(rows.dtype)
    where = {row.tobytes(): k for k, row in enumerate(rows)}
    want = [where.get(row.tobytes(), -1) for row in queries]
    assert -1 in want
    real, calls = cayley._byte_key_finder, []
    monkeypatch.setattr(cayley, "_byte_key_finder", lambda r: calls.append(1) or real(r))
    assert cayley.row_finder(rows, modulus)(queries).tolist() == want
    assert calls == ([] if dense else [1])
    assert real(rows)(queries).tolist() == want
    for path in (cayley.row_finder, lambda r, m: real(r)):
        with pytest.raises(ValueError, match="distinct rows"):
            path(np.concatenate((rows, rows[:1])), modulus)


def test_row_finder_dense_path_rejects_entries_out_of_range():
    find = cayley.row_finder(np.array([[0, 1], [2, 0]], dtype=np.uint8), 3)
    assert find(np.array([[2, 0], [1, 1]], dtype=np.uint8)).tolist() == [1, -1]
    with pytest.raises(ValueError, match="0..2"):
        find(np.array([[3, 0]], dtype=np.uint8))


def test_spectrum_descending_and_total():
    for fam in (make_family("folded_half_cube", n=6), make_family("hamming", n=3, e=3)):
        g = fam.cayley_graph()
        spec = spectrum(g)
        evs = [ev for ev, _ in spec]
        assert evs == sorted(evs, reverse=True)
        assert sum(m for _, m in spec) == len(g.vertices)
