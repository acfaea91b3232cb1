"""Tests for Cayley graph spectra via characters."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

import nortonalg
from nortonalg import cayley
from nortonalg.cayley import (
    CayleyGraph,
    character_exponents,
    spectrum,
    sum_positions,
    verify_all_eigenvectors,
)
from nortonalg.cyclotomic import Cyclotomic
from nortonalg.families import make_family
from reference import (_neighbor_index, canonical_label, eigenvalue_of_character,
                       generated_subgroup, integer_eigenvalue, power_remainders, residue_positions,
                       verify_at_every_connection_element, verify_eigenvector)


# the 41 families of criterion 1 and of the golden cases
CRITERION_1 = (
    [("hamming", {"n": n, "e": e}) for n in range(1, 5) for e in range(2, 6)]
    + [("hypercube", {"n": n}) for n in range(1, 9)]
    + [("halved_cube", {"n": n}) for n in range(2, 9)]
    + [("folded_cube", {"n": n}) for n in range(3, 9)]
    + [("folded_half_cube", {"n": n}) for n in (6, 8)]
    + [("bilinear", {"q": q, "d": 2, "e": 2}) for q in (2, 3)]
)


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


def test_character_exponents_equal_the_plain_dot_products():
    # lanes of 1, 2 and 4 bytes in each uint64 word, vertex counts on and off
    # a whole number of words, and sums up to the top of the one-byte lane
    rng = np.random.default_rng(5)
    for e, width, count in ((2, 14, 64), (2, 255, 13), (3, 6, 29), (5, 6, 8), (257, 1, 257),
                            (257, 3, 31), (7, 2000, 9)):
        dtype = np.min_scalar_type(e - 1)
        u = rng.integers(0, e, (11, width)).astype(dtype)
        x = rng.integers(0, e, (count, width)).astype(dtype)
        x[0] = e - 1
        u[0] = e - 1
        want = (u.astype(object) @ x.T.astype(object)) % e
        got = character_exponents(u, x, e)
        assert got.dtype == dtype and (got == want).all(), (e, width, count)


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
    with pytest.raises(ValueError, match="identity"):
        CayleyGraph(4, _rows((1,), (2,), (3,)), _rows((2,)))
    # entries outside 0..e-1 in any of the three sets: character_exponents
    # sizes its lanes for entries below e, so the row 255 read the exponents
    # (0, 0, 2) on Z_3, and the rows 3 and 4 repeated the characters 0 and 1
    z3, s3 = _rows((0,), (1,), (2,)), _rows((1,), (2,))
    for verts, conn, chars in ((z3, s3, _rows((0,), (1,), (255,))),
                               (z3, s3, _rows((0,), (3,), (4,))),
                               (_rows((0,), (1,), (5,)), s3, None),
                               (z3, _rows((1,), (2,), (4,)), None)):
        with pytest.raises(ValueError, match="must be in 0..2"):
            CayleyGraph(3, verts, conn, chars)
    # rows of 12 entries at e = 3 take 24 code bits, past row_finder's dense
    # codes, whose byte keys check no range
    ones = np.ones((1, 12), dtype=np.uint8)
    wide = np.concatenate([0 * ones, ones, 2 * ones])
    assert 12 * 2 > cayley.DENSE_CODE_BITS
    # on X = <(1, ..., 1)> the rows k e_1 index its three characters
    assert verify_all_eigenvectors(CayleyGraph(3, wide, wide[1:], wide * (np.arange(12) == 0)))
    for verts, conn in ((np.concatenate([wide, 7 * ones]), wide[1:]),
                        (wide, np.concatenate([wide[1:], 7 * ones]))):
        with pytest.raises(ValueError, match="must be in 0..2"):
            CayleyGraph(3, verts, conn, verts)


def test_integer_eigenvalue_downcast_rejects_nonintegral():
    g = CayleyGraph(5, _rows((0,), (1,), (2,), (3,), (4,)), _rows((1,), (4,)))
    # chi_1(S) = w + w^4 is a real algebraic number but not rational at e = 5
    with pytest.raises(ValueError):
        integer_eigenvalue(g, (1,))
    # the certificate reads theta_u through spectrum, which finds it is no integer
    assert not verify_all_eigenvectors(g)


def test_spectrum_verify_evaluates_each_character_once(monkeypatch):
    # spectrum reads each distinct neighbour-count histogram of a chunk of
    # characters once, so never more rows than there are characters; the
    # certificate reads theta_u through spectrum, so it reduces the same
    # histograms and no others
    calls = []
    real = cayley._integer_root_sums
    monkeypatch.setattr(cayley, "_integer_root_sums",
                        lambda hists, e: calls.append(hists.tolist()) or real(hists, e))
    g = make_family("hamming", n=2, e=5).cayley_graph()
    spectrum(g)
    assert all(len({tuple(row) for row in hists}) == len(hists) for hists in calls)
    assert 0 < sum(len(hists) for hists in calls) <= len(g.characters)
    want = list(calls)
    calls.clear()
    assert verify_all_eigenvectors(g)
    assert calls == want


def test_spectrum_reduces_each_distinct_histogram_once(monkeypatch):
    # one character a chunk or two at e = 2048: the histograms repeat across
    # chunks, and each of the 12 divisor classes of the characters (u with
    # gcd(u, 2048) = d) gives one histogram, reduced once per call
    calls = []
    real = cayley._integer_root_sums
    monkeypatch.setattr(cayley, "_integer_root_sums",
                        lambda hists, e: calls.append(len(hists)) or real(hists, e))
    fam = make_family("hamming", n=1, e=2048)
    assert spectrum(fam.cayley_graph()) == sorted(
        ((fam.predicted_eigenvalue(i), fam.predicted_dimension(i)) for i in fam.eigenspaces()),
        reverse=True)
    assert len(calls) > 1 and sum(calls) == 12


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 9, 12])
def test_integer_root_sums_equal_the_exact_sums(e):
    rng = np.random.default_rng(e)
    hists = rng.integers(0, 5, size=(40, e))
    hists[:20] = hists[:20, 1:2]  # c (w^0 + ... + w^(e-1)) = 0, plus d w^0 = d
    hists[:20, 0] += np.arange(20)
    hists[20:25] = 0
    exact = hists @ np.array(power_remainders(e, e))  # canonical forms by long division
    values = cayley._integer_root_sums(hists[:25], e)
    assert not exact[:25, 1:].any() and values.tolist() == exact[:25, 0].tolist()
    if not exact[:, 1:].any():
        assert cayley._integer_root_sums(hists, e).tolist() == exact[:, 0].tolist()
    else:
        assert cayley._integer_root_sums(hists, e) is None


def test_integer_root_sums_raise_before_an_int64_product_could_wrap():
    big = np.array([[2**62, 0, 0]], dtype=np.int64)  # 3 counts of 2^62 times |R| <= 1
    with pytest.raises(OverflowError):
        cayley._integer_root_sums(big, 3)
    assert cayley._integer_root_sums(big // 2, 3).tolist() == [2**61]


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
    # the edge identity fails at x = s = 1; the certificate reads the row at
    # the one generator 1 only, where it repeats the trivial character's 0
    _forge_character_row(monkeypatch, (1,), (0, 0, 2, 2))
    assert not verify_all_eigenvectors(g)
    # (1, 1, 1, -1) is no eigenvector
    _forge_character_row(monkeypatch, (1,), (0, 0, 0, 2))
    assert not verify_all_eigenvectors(g)


def test_edge_identity_checked_at_every_connection_element(monkeypatch):
    # (1, i, -i, 1) in x_0, constant in x_1, holds the identity along the first
    # connection element (0, 1) and has a rational theta (4), but it is no
    # eigenvector of H(2,4); the reference finds it.  The certificate reads
    # u.x only at the generators and S, where a genuine u.x is additive, so
    # it is not asked of a row forged away from them
    g = make_family("hamming", n=2, e=4).cayley_graph()
    assert g.connection[0].tolist() == [0, 1]
    _forge_character_row(monkeypatch, (1, 0), (0, 1, 3, 0))
    assert not verify_at_every_connection_element(g)


def test_spectrum_and_verdict_independent_of_chunk_size(monkeypatch):
    graphs = [make_family(kind, **opts).cayley_graph() for kind, opts in (
        ("hamming", {"n": 2, "e": 5}), ("folded_cube", {"n": 5}),
        ("bilinear", {"q": 2, "d": 2, "e": 2}))]
    whole = [(spectrum(g), verify_all_eigenvectors(g)) for g in graphs]
    monkeypatch.setattr(cayley, "SUM_CHUNK_BYTES", 7)
    assert [(spectrum(g), verify_all_eigenvectors(g)) for g in graphs] == whole
    assert all(verdict for _, verdict in whole)


def _traced_peak(check) -> int:
    """The traced peak of check(), which must hold, in bytes."""
    tracemalloc.start()
    try:
        assert check()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bounded_checks():
    """name: (check, MiB bound) of the chunked loops at the default budget;
    the root-sum matrix is cached before a trace."""
    checks = {}
    # every array a chunk holds is counted in it (0.25, 0.15 and 0.36 MiB
    # here); the every-vertex edge identity in vertex blocks peaked at 0.37,
    # 0.14 and 0.82 MiB, its generator columns and vertex index outside the
    # budget, and with 1 MiB chunks the first two at 1.44 and 1.25 MiB
    for kind, opts, bound in (("bilinear", {"q": 3, "d": 2, "e": 3}, 0.5),
                              ("hamming", {"n": 1, "e": 257}, 0.25),
                              ("halved_cube", {"n": 14}, 0.5)):
        g = make_family(kind, **opts).cayley_graph()
        assert verify_all_eigenvectors(g)
        checks[kind] = (lambda g=g: verify_all_eigenvectors(g), bound)
    # the 462 x 462 int32 table alone is 0.81 MiB (1.23 MiB in all; 2.04 with
    # 1 MiB chunks and a dense index of 2^16 codes for 11-bit rows)
    rows = make_family("hypercube", n=11).space(5).rows
    checks["sum_positions"] = (lambda: sum_positions(rows, 2) is not None, 1.4)
    return checks


def test_eigenvector_check_works_in_a_bounded_set():
    checks = _bounded_checks()
    for kind in ("bilinear", "hamming", "halved_cube"):
        check, bound = checks[kind]
        peak = _traced_peak(check)
        assert peak < bound * (1 << 20), (kind, peak)


def test_sum_positions_works_in_a_bounded_set():
    check, bound = _bounded_checks()["sum_positions"]
    peak = _traced_peak(check)
    assert peak < bound * (1 << 20), peak


def test_spectrum_works_in_a_bounded_set():
    # a chunk counts every array it holds (0.14, 0.25 and 0.25 MiB here); at
    # (|S| + e) * 8 bytes a character, with the exponent sums, intp keys and
    # np.unique's copies left out, all three peaked at 0.41 MiB
    for kind, opts in (("hamming", {"n": 1, "e": 257}), ("bilinear", {"q": 3, "d": 2, "e": 3}),
                       ("halved_cube", {"n": 14})):
        g = make_family(kind, **opts).cayley_graph()
        want = spectrum(g)  # caches the root-sum matrix
        tracemalloc.start()
        try:
            assert spectrum(g) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * (1 << 20), (kind, peak)


def test_working_set_follows_the_chunk_budget(monkeypatch):
    # a quarter of the budget takes at least a quarter of the cut off each
    # peak, so the bounds above come from the constant, not the instances
    checks = _bounded_checks()
    full = {name: _traced_peak(check) for name, (check, _) in checks.items()}
    cut = cayley.SUM_CHUNK_BYTES * 3 // 4
    monkeypatch.setattr(cayley, "SUM_CHUNK_BYTES", cayley.SUM_CHUNK_BYTES - cut)
    for name, (check, _) in checks.items():
        assert _traced_peak(check) < full[name] - cut // 4, name


def _generating_rows(g):
    """The vertex rows of the generators that _generators walks."""
    return g.vertices[cayley._generators(g.vertices, g.modulus)]


def test_generating_columns_generate_the_connection_set():
    # on every criterion-1 graph the generators that the walk of X picks,
    # one column X + x each, generate X, which holds S, and each lies
    # outside the subgroup of the ones before it
    for kind, opts in CRITERION_1:
        g = make_family(kind, **opts).cayley_graph()
        gens = _generating_rows(g)
        group = generated_subgroup(gens, g.modulus)
        assert group == {tuple(x) for x in g.vertices.tolist()}, (kind, opts)
        assert {tuple(s) for s in g.connection.tolist()} <= group, (kind, opts)
        for k in range(len(gens)):
            assert tuple(gens[k].tolist()) not in generated_subgroup(gens[:k], g.modulus)


RANK_MANY = [  # (family, parameters, generators of X, |S|)
    *((("hypercube", {"n": n}, n, n)) for n in (1, 5, 12)),
    *((("halved_cube", {"n": n}, n - 1, n * (n - 1) // 2)) for n in (2, 5, 12)),
    ("folded_cube", {"n": 9}, 8, 9),
    ("folded_half_cube", {"n": 8}, 6, 28),
    ("hamming", {"n": 4, "e": 5}, 4, 16),
    ("hamming", {"n": 1, "e": 257}, 1, 256),
    ("bilinear", {"q": 3, "d": 2, "e": 3}, 6, 104),
    ("bilinear", {"q": 2, "d": 3, "e": 4}, 12, 105),
]


@pytest.mark.parametrize("kind, opts, count, degree", RANK_MANY, ids=[
    f"{kind}({','.join(map(str, opts.values()))})" for kind, opts, _, _ in RANK_MANY])
def test_generating_columns_are_rank_many(kind, opts, count, degree):
    g = make_family(kind, **opts).cayley_graph()
    assert (len(_generating_rows(g)), g.degree) == (count, degree)


WALK_PROBE = """
from nortonalg import cayley
from nortonalg.families import make_family
print(cayley._generators(make_family("hamming", n=1, e=65537).vertices(), 65537))
"""


def test_walk_takes_in_a_generator_of_large_order_in_doubling_steps():
    # Z_65537 has one generator, of order 65537: its cosets taken in one
    # gather at a time took about 12 s, and 17 doubling steps take a few ms
    src = os.path.dirname(os.path.dirname(nortonalg.__file__))
    proc = subprocess.run([sys.executable, "-c", WALK_PROBE], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=3, check=True)
    assert proc.stdout == "[1]\n"


def test_generating_set_verdict_equals_the_every_element_check(monkeypatch):
    for kind, opts in CRITERION_1:
        g = make_family(kind, **opts).cayley_graph()
        assert verify_all_eigenvectors(g) and verify_at_every_connection_element(g), (kind, opts)
    # theta_(1) = w + w^4 is no rational integer at e = 5
    g = CayleyGraph(5, _rows((0,), (1,), (2,), (3,), (4,)), _rows((1,), (4,)))
    assert not verify_all_eigenvectors(g) and not verify_at_every_connection_element(g)
    # the forged rows of the edge-identity tests, which the reference rejects;
    # the certificate reads no exponent row away from the generators and S
    for (kind, opts), u, forged in (
            (("hamming", {"n": 1, "e": 4}), (1,), (0, 0, 2, 2)),
            (("hamming", {"n": 1, "e": 4}), (1,), (0, 0, 0, 2)),
            (("hamming", {"n": 2, "e": 4}), (1, 0), (0, 1, 3, 0))):
        g = make_family(kind, **opts).cayley_graph()
        _forge_character_row(monkeypatch, u, forged)
        assert not verify_at_every_connection_element(g)
        monkeypatch.undo()


@pytest.mark.parametrize("kind, opts", [
    ("hamming", {"n": 2, "e": 3}), ("hypercube", {"n": 3}), ("halved_cube", {"n": 5}),
    ("folded_cube", {"n": 5}), ("bilinear", {"q": 2, "d": 2, "e": 2})],
    ids=["hamming(2,3)", "hypercube(3)", "halved_cube(5)", "folded_cube(5)", "bilinear(2,2,2)"])
def test_one_vertex_corruption_is_rejected(monkeypatch, kind, opts):
    # E[u, x0] + 1 at a single vertex x0, the identity vertex included, is no
    # character any more on a group of more than two elements; the reference
    # rejects it (the certificate reads no exponent row away from the
    # generators and S, so it is not asked)
    g = make_family(kind, **opts).cayley_graph()
    real = cayley.character_exponents
    for u in (g.characters[0], g.characters[-1]):
        for x0 in g.vertices:
            def patched(u_arr, x_arr, e, u=u, x0=x0):
                out = real(u_arr, x_arr, e)
                at = np.ix_((u_arr == u).all(axis=1), (x_arr == x0).all(axis=1))
                out[at] = (out[at] + 1) % e
                return out

            monkeypatch.setattr(cayley, "character_exponents", patched)
            assert not verify_at_every_connection_element(g), (u, x0)
    monkeypatch.undo()
    assert verify_all_eigenvectors(g)


def test_batched_spectrum_equals_per_character_eigenvalues():
    assert len(CRITERION_1) == 41
    for kind, opts in CRITERION_1:
        g = make_family(kind, **opts).cayley_graph()
        per_character = Counter(integer_eigenvalue(g, u) for u in g.characters)
        assert spectrum(g) == sorted(per_character.items(), key=lambda p: -p[0]), (kind, opts)


def test_neighbor_index_rejects_a_vertex_set_not_closed():
    g = CayleyGraph(4, _rows((0,), (2,)), _rows((2,)))
    verts = np.array(g.vertices, dtype=np.uint8)
    assert _neighbor_index(g, verts).tolist() == [[1], [0]]
    g.connection = _rows((1,), (3,))
    with pytest.raises(ValueError):
        _neighbor_index(g, verts)


def test_check_rejects_a_vertex_set_not_closed_under_a_non_generator():
    # in Z_8, X = {0, 1, 2, 6, 7} holds S = {1, 7, 2, 6}, and 2 = 1 + 1 is no
    # generator; X + 2 leaves X, so the every-element neighbour index raises,
    # and so does the certificate, whose walk of X fails at its first
    # generator 1, where X + 1 holds 3
    xs = {0, 1, 2, 6, 7}
    assert {(x + 2) % 8 for x in xs} - xs == {3, 4}
    g = CayleyGraph(8, _rows(*((x,) for x in sorted(xs))), _rows((1,), (7,), (2,), (6,)))
    with pytest.raises(ValueError, match="the vertex set is not a group"):
        verify_all_eigenvectors(g)
    with pytest.raises(ValueError, match="not closed under adding a connection element"):
        _neighbor_index(g, g.vertices)


def test_certificate_rejects_forged_inputs():
    z3, s3 = _rows((0,), (1,), (2,)), _rows((1,), (2,))
    assert verify_all_eigenvectors(CayleyGraph(3, z3, s3))
    # repeated characters: |X| rows, but not the dual group
    for chars in (_rows((0,), (1,), (1,)), _rows((0,), (0,), (0,))):
        assert not verify_all_eigenvectors(CayleyGraph(3, z3, s3, chars)), chars.ravel()
    for chars in (_rows((0,), (1,), (3,)), _rows((0,), (1,), (255,))):
        with pytest.raises(ValueError, match="must be in 0..2"):
            CayleyGraph(3, z3, s3, chars)
    # X = {0, 1, 3, 4} in Z_6 is closed under S = {3} but holds no 1 + 1
    g = CayleyGraph(6, _rows((0,), (1,), (3,), (4,)), _rows((3,)))
    with pytest.raises(ValueError, match="the vertex set is not a group"):
        verify_all_eigenvectors(g)
    # theta_(1) = w + w^4 is no rational integer at e = 5
    assert not verify_all_eigenvectors(
        CayleyGraph(5, _rows((0,), (1,), (2,), (3,), (4,)), _rows((1,), (4,))))


def test_certificate_work_is_linear_in_the_characters(monkeypatch):
    # the exponent entries the check computes on hypercube(12): one per
    # character and generator, then spectrum's one per character and
    # connection element, where the every-vertex reference takes |U| |X|
    g = make_family("hypercube", n=12).cayley_graph()
    entries = []
    real = cayley.character_exponents
    monkeypatch.setattr(cayley, "character_exponents",
                        lambda u, x, e: entries.append(len(u) * len(x)) or real(u, x, e))
    assert verify_all_eigenvectors(g)
    assert sum(entries) <= len(g.characters) * (12 + g.degree)


def test_sum_positions_independent_of_chunk_size(monkeypatch):
    for kind, opts, i in (("halved_cube", {"n": 6}, 3), ("hamming", {"n": 3, "e": 3}, 2)):
        fam = make_family(kind, **opts)
        rows = fam.space(i).rows
        whole = sum_positions(rows, fam.modulus)
        assert (whole == fam.space(i).table).all()
        # three basis rows of sums per step, then the same by byte keys only,
        # on the XOR path of the halved cube and on the residue path of both
        for name, value in (("SUM_CHUNK_BYTES", 3 * rows.size), ("DENSE_CODE_BITS", 0)):
            monkeypatch.setattr(cayley, name, value)
            for path in (sum_positions, residue_positions):
                assert (path(rows, fam.modulus) == whole).all()
        monkeypatch.undo()


def _packed_and_residue_agree(rows):
    want = residue_positions(rows, 2)
    got = sum_positions(rows, 2)
    assert got.dtype == np.int32 and got.tolist() == want.tolist(), rows.shape
    return got


def test_xor_sums_equal_residue_sums_on_random_rows():
    # widths on both sides of the 16 dense-code columns and off multiples of 8,
    # with the all-zero row, whose sums with a row are that row
    rng = np.random.default_rng(2)
    for width in range(1, 71):
        rows = np.unique(rng.integers(0, 2, (min(60, 2**width), width), dtype=np.uint8), axis=0)
        rows = np.concatenate((np.zeros((1, width), np.uint8), rows[rows.any(axis=1)]))
        rows = rows[rng.permutation(len(rows))]
        table = _packed_and_residue_agree(rows)
        zero = int(np.flatnonzero(~rows.any(axis=1))[0])
        assert (table[zero] == np.arange(len(rows))).all()
        assert (np.diagonal(table) == zero).all()  # x + x = 0 modulo 2


def test_halved_representatives_map_back_to_the_labels():
    # every row of n entries, so the ties at weight n/2 on both sides of position 1
    for n in range(2, 13):
        fam = make_family("halved_cube", n=n)
        rows = np.array(list(product((0, 1), repeat=n)), dtype=np.uint8)
        reps = rows ^ rows[:, -1:]  # the set or its complement, without position n
        assert (reps[:, -1] == 0).all()
        got = [tuple(np.flatnonzero(row) + 1) for row in fam._label_rows(reps)]
        want = [canonical_label(fam, np.flatnonzero(row) + 1) for row in rows]
        assert got == want, n
        for i in fam.eigenspaces():
            _packed_and_residue_agree(fam.space(i).rows)
        if n <= 8:  # the sums of every pair of representatives, not only of one space's
            _packed_and_residue_agree(np.unique(reps, axis=0))


def test_xor_path_rejects_repeated_rows_and_entries_out_of_range():
    for width in (3, 40):  # dense codes and byte keys
        rows = np.eye(width, dtype=np.uint8)
        with pytest.raises(cayley.RepeatedRowError):
            sum_positions(np.concatenate((rows, rows[:1])), 2)
        # packbits would read 2 as 1, and the rows would look distinct and valid
        bad = rows.copy()
        bad[0, 1] = 2
        with pytest.raises(ValueError, match="0..1"):
            sum_positions(bad, 2)
        with pytest.raises(ValueError, match="0..1"):
            sum_positions(-rows.astype(np.int8), 2)


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


def test_packed_rows_of_three_bytes_take_the_dense_index(monkeypatch):
    # hypercube(18) rows pack into 3 bytes, 24 code bits, but code below
    # 2^18: the largest code, not the width, chooses the dense index
    rows = make_family("hypercube", n=18).space(2).rows
    want = residue_positions(rows, 2)
    assert cayley._packed_bits(rows).shape[1] == 3 and 3 * 8 > cayley.DENSE_CODE_BITS

    def no_byte_keys(rows):
        raise AssertionError("byte keys for codes below 2^DENSE_CODE_BITS")

    monkeypatch.setattr(cayley, "_byte_key_finder", no_byte_keys)
    assert (sum_positions(rows, 2) == want).all()


def test_row_finder_dense_path_rejects_entries_out_of_range():
    find = cayley.row_finder(np.array([[0, 1], [2, 0]], dtype=np.uint8), 3)
    assert find(np.array([[2, 0], [1, 1]], dtype=np.uint8)).tolist() == [1, -1]
    with pytest.raises(ValueError, match="0..2"):
        find(np.array([[3, 0]], dtype=np.uint8))


def test_row_finder_misses_codes_past_the_largest_row():
    # the dense index ends at the largest row code, that of (1, 0) here, and
    # every larger query code reads -1
    find = cayley.row_finder(np.array([[0, 1], [1, 0]], dtype=np.uint8), 3)
    assert find(np.array([[1, 0], [1, 1], [2, 0], [2, 2], [0, 0]], np.uint8)).tolist() == [
        1, -1, -1, -1, -1]


def test_spectrum_descending_and_total():
    for fam in (make_family("folded_half_cube", n=6), make_family("hamming", n=3, e=3)):
        g = fam.cayley_graph()
        spec = spectrum(g)
        evs = [ev for ev, _ in spec]
        assert evs == sorted(evs, reverse=True)
        assert sum(m for _, m in spec) == len(g.vertices)
