from fractions import Fraction
import itertools
import math

import pytest
from hypothesis import given, strategies as st

from petersonlab import grouprep, linalg, rootdata

from test_acceptance import involution_star

F = Fraction

POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9,
    "C3": 9, "D4": 12, "G2": 6, "A1xA1": 2, "A2xA1": 4,
}


def test_catalog_entries_validate():
    for name in rootdata.CATALOG:
        datum = rootdata.datum_from_name(name)
        assert datum.n == len(rootdata.CATALOG[name])


def test_b2_catalog_entry():
    assert rootdata.CATALOG["B2"] == [[2, -1], [-2, 2]]


def test_unknown_type_raises():
    with pytest.raises(Exception):
        rootdata.datum_from_name("E8")


def test_invalid_cartan_rejected():
    with pytest.raises(Exception):
        rootdata.cartan_from_entries([[2, -1], [0, 2]])  # broken symmetry
    with pytest.raises(Exception):
        rootdata.cartan_from_entries([[2, 1], [1, 2]])   # positive offdiag
    with pytest.raises(Exception):
        rootdata.cartan_from_entries([[1, 0], [0, 2]])   # bad diagonal


def test_positive_root_counts():
    for name, count in POSITIVE_ROOT_COUNTS.items():
        datum = rootdata.datum_from_name(name)
        assert len(datum.positive_roots) == count


def test_simple_roots_pair_with_coroots_as_cartan():
    for name in ("A2", "B2", "G2", "C3"):
        datum = rootdata.datum_from_name(name)
        n = datum.n
        for i in range(n):
            alpha = tuple(1 if k == i else 0 for k in range(n))
            for j in range(n):
                assert datum.root_pair_coroot(alpha, j) == \
                    datum.pairing[i][j]


def test_longest_element_length_is_root_count():
    for name, count in POSITIVE_ROOT_COUNTS.items():
        datum = rootdata.datum_from_name(name)
        w0 = rootdata.longest_element(datum, range(datum.n))
        assert len(w0.word) == count


def test_longest_element_squares_to_identity():
    for name in ("A3", "B2", "G2"):
        datum = rootdata.datum_from_name(name)
        w0 = rootdata.longest_element(datum, range(datum.n))
        sq = rootdata.weyl_from_word(datum, w0.word + w0.word)
        ident = rootdata.weyl_from_word(datum, ())
        assert sq.matrix == ident.matrix


def test_involution_star():
    assert involution_star(rootdata.datum_from_name("A2")) == (1, 0)
    assert involution_star(rootdata.datum_from_name("B2")) == (0, 1)
    assert involution_star(
        rootdata.datum_from_name("A3")) == (2, 1, 0)
    assert involution_star(
        rootdata.datum_from_name("G2")) == (0, 1)


def test_dynkin_components():
    assert rootdata.dynkin_components(
        rootdata.datum_from_name("A2xA1")) == [[0, 1], [2]]
    assert rootdata.dynkin_components(
        rootdata.datum_from_name("A1xA1")) == [[0], [1]]
    assert rootdata.dynkin_components(
        rootdata.datum_from_name("D4")) == [[0, 1, 2, 3]]


def test_dynkin_components_of_node_subset():
    a2xa1 = rootdata.datum_from_name("A2xA1")
    assert rootdata.dynkin_components(a2xa1, (2, 0)) == [[0], [2]]
    assert rootdata.dynkin_components(a2xa1, (1, 0, 2)) == [[0, 1], [2]]
    assert rootdata.dynkin_components(
        rootdata.datum_from_name("A4"), (0, 1, 3)) == [[0, 1], [3]]
    assert rootdata.dynkin_components(a2xa1, ()) == []


def test_subsets_binary_counting_order():
    assert rootdata.subsets("abc") == [
        (), ("a",), ("b",), ("a", "b"), ("c",), ("a", "c"), ("b", "c"),
        ("a", "b", "c")]


def test_fundamental_exponents_known_values():
    cases = {"A1": (2,), "A2": (3, 3), "A3": (4, 2, 4), "B2": (1, 2)}
    for name, want in cases.items():
        datum = rootdata.datum_from_name(name)
        assert rootdata.fundamental_exponents(datum) == want


def test_fundamental_exponents_minimality():
    for name in rootdata.CATALOG:
        datum = rootdata.datum_from_name(name)
        exps = rootdata.fundamental_exponents(datum)
        for i, m in enumerate(exps):
            varpi = tuple(F(1 if k == i else 0) for k in range(datum.n))
            coords = datum.weight_to_root_coords(
                tuple(m * v for v in varpi))
            assert all(c.denominator == 1 for c in coords)
            for p in {q for q in range(2, m + 1) if m % q == 0}:
                smaller = datum.weight_to_root_coords(
                    tuple(F(m, p) * v for v in varpi))
                assert any(c.denominator != 1 for c in smaller)


def test_pairing_inverse_computed_once():
    for name in rootdata.CATALOG:
        datum = rootdata.datum_from_name(name)
        assert datum.pairing_inverse is datum.pairing_inverse
        assert [list(row) for row in datum.pairing_inverse] == \
            linalg.inverse(datum.pairing)


def test_symmetrizer_positive_primitive_symmetrizes():
    for name in rootdata.CATALOG:
        datum = rootdata.datum_from_name(name)
        d, p = datum.symmetrizer, datum.pairing
        assert d is datum.symmetrizer
        assert all(v > 0 for v in d) and math.gcd(*d) == 1
        assert all(p[i][j] * d[j] == p[j][i] * d[i]
                   for i in range(datum.n) for j in range(datum.n))


def test_cached_values_keep_equality_and_hash():
    a = rootdata.datum_from_name("G2")
    b = rootdata.datum_from_name("G2")
    a.pairing_inverse, a.symmetrizer
    assert "symmetrizer" in vars(a) and "symmetrizer" not in vars(b)
    assert a == b and hash(a) == hash(b)


def test_positive_roots_supported_on():
    datum = rootdata.datum_from_name("A3")
    assert len(rootdata.positive_roots_supported_on(datum, [0, 1])) == 3
    assert len(rootdata.positive_roots_supported_on(datum, [0, 2])) == 2
    assert rootdata.positive_roots_supported_on(datum, []) == []


@given(st.sampled_from(sorted(rootdata.CATALOG)),
       st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=6))
def test_weyl_action_preserves_root_system(name, word_seed):
    datum = rootdata.datum_from_name(name)
    word = tuple(i % datum.n for i in word_seed)
    w = rootdata.weyl_from_word(datum, word)
    roots = set(datum.positive_roots) | {
        tuple(-v for v in r) for r in datum.positive_roots}
    for r in datum.positive_roots:
        assert tuple(w.act_on_root(r)) in roots


@given(st.sampled_from(["A2", "B2", "G2"]),
       st.integers(min_value=0, max_value=1))
def test_simple_reflection_involutive(name, i):
    datum = rootdata.datum_from_name(name)
    w = rootdata.weyl_from_word(datum, (i, i))
    ident = rootdata.weyl_from_word(datum, ())
    assert w.matrix == ident.matrix


def test_weyl_elements_compare_by_matrix_not_word():
    """Two reduced words of one element are one element: on A2, s_1 s_2 s_1
    = s_2 s_1 s_2 (the braid relation), so they are equal and hash alike."""
    datum = rootdata.datum_from_name("A2")
    a = rootdata.weyl_from_word(datum, (0, 1, 0))
    b = rootdata.weyl_from_word(datum, (1, 0, 1))
    assert a.word != b.word
    assert a == b and hash(a) == hash(b)
    assert a != rootdata.weyl_from_word(datum, (0, 1))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_weyl_from_word_is_the_element_wdot_represents(name):
    """For every word of length <= 3 and every simple root a_j, the image
    weyl_from_word(word) a_j is the root of the label that wdot(word)
    sends e_{a_j} to on the adjoint rep, up to sign."""
    ws = grouprep.Workspace(rootdata.datum_from_name(name))
    n = ws.datum.n
    rep = ws.adjoint_rep()
    labels = rep.module.labels
    roots = ws.datum.positive_roots
    for length in range(4):
        for word in itertools.product(range(n), repeat=length):
            w = rootdata.weyl_from_word(ws.datum, word)
            for j in range(n):
                start = labels.index(('e', ws.chev.simple_index[j]))
                image = grouprep.wdot(word).apply(rep, rep.unit(start))
                slots = [r for r, v in enumerate(image) if v]
                assert len(slots) == 1 and abs(image[slots[0]]) == 1
                kind, idx = labels[slots[0]]
                root = roots[idx] if kind == 'e' else tuple(
                    -v for v in roots[idx])
                simple = tuple(int(k == j) for k in range(n))
                assert w.act_on_root(simple) == root, (word, j)
