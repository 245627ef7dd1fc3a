from fractions import Fraction
import hashlib

import pytest

from petersonlab import grouprep, liealg, linalg, rootdata

F = Fraction

FUNDAMENTAL_DIMS = {
    "A1": (2,),
    "A2": (3, 3),
    "A3": (4, 6, 4),
    "A4": (5, 10, 10, 5),
    "B2": (5, 4),
    "B3": (7, 21, 8),
    "C3": (6, 14, 14),
    "D4": (8, 28, 8, 8),
    "G2": (7, 14),
}


def _datum(name):
    return rootdata.datum_from_name(name)


def _fund(datum, i):
    return tuple(1 if k == i else 0 for k in range(datum.n))


def _label_matrix(rep, label):
    """Dense rational matrix of a Chevalley label's action on rep."""
    rows, den = rep._int_label(label)
    return [[F(v, den) for v in row]
            for row in rep.module.sparse_to_dense(rows)]


def test_weyl_dimension_known_values():
    for name, dims in FUNDAMENTAL_DIMS.items():
        datum = _datum(name)
        got = tuple(liealg.weyl_dimension(datum, _fund(datum, i))
                    for i in range(datum.n))
        assert got == dims


def test_built_modules_match_weyl_dimension():
    for name in ("A2", "B2", "G2"):
        datum = _datum(name)
        for i in range(datum.n):
            mod = liealg._build_irreducible(datum, _fund(datum, i))
            assert mod.dimension == liealg.weyl_dimension(
                datum, _fund(datum, i))


def test_dimension_cap_enforced():
    datum = _datum("A2")
    with pytest.raises(liealg.DimensionCapError):
        liealg._build_irreducible(datum, (9, 9))


def test_highest_weight_vector_and_gram_normalization():
    datum = _datum("B2")
    mod = liealg._build_irreducible(datum, (1, 0))
    assert mod.weights[0] == (1, 0)
    assert mod.gram[0][0] == 1
    # the form is symmetric and block-diagonal across distinct weights
    d = mod.dimension
    for a in range(d):
        for b in range(d):
            assert mod.gram[a][b] == mod.gram[b][a]
            if mod.weights[a] != mod.weights[b]:
                assert mod.gram[a][b] == 0


def test_gram_contravariance():
    datum = _datum("A2")
    mod = liealg._build_irreducible(datum, (1, 1))
    d = mod.dimension
    gram = mod.gram
    for i in range(datum.n):
        e = mod.e_dense(i)
        f = mod.f_dense(i)
        # <e u, v> = <u, f v>: E^T G = G F
        lhs = [[sum(e[a][r] * gram[a][c] for a in range(d))
                for c in range(d)] for r in range(d)]
        rhs = [[sum(gram[r][b] * f[b][c] for b in range(d))
                for c in range(d)] for r in range(d)]
        assert lhs == rhs


def test_chevalley_defining_relations():
    for name in ("A2", "B2", "G2", "C3"):
        datum = _datum(name)
        cb = liealg.chevalley_basis(datum)
        n = datum.n
        for i in range(n):
            ei = ('e', cb.simple_index[i])
            fi = ('f', cb.simple_index[i])
            hpart = cb.bracket_elements({ei: F(1)}, {fi: F(1)})
            assert hpart == {('h', i): F(1)}
        # [h_i, e_j] = <alpha_j, alpha_i^vee> e_j
        for i in range(n):
            for j in range(n):
                ej = ('e', cb.simple_index[j])
                br = cb.bracket_elements({('h', i): F(1)}, {ej: F(1)})
                c = datum.pairing[j][i]
                want = {ej: F(c)} if c else {}
                assert br == want


def test_g2_structure_constants_magnitudes():
    datum = _datum("G2")
    cb = liealg.chevalley_basis(datum)
    n = len(datum.positive_roots)
    mags = {abs(v) for a in range(n) for b in range(n)
            for v in cb.bracket(('e', a), ('e', b)).values()}
    assert mags == {1, 2, 3}


def test_structure_constants_chevalley_theorem():
    """On every catalog type, N_{b,a} = -N_{a,b}, and |N_{a,b}| = p + 1
    whenever a + b is a root, with p the largest integer such that
    b - p a is a root (Chevalley's theorem)."""
    for name in rootdata.CATALOG:
        datum = _datum(name)
        cb = liealg.chevalley_basis(datum)
        roots = datum.positive_roots
        root_set = set(roots) | {tuple(-v for v in r) for r in roots}
        for a, alpha in enumerate(roots):
            for b, beta in enumerate(roots):
                s = tuple(x + y for x, y in zip(alpha, beta))
                br = cb.bracket(('e', a), ('e', b))
                if s not in root_set:
                    assert br == {}
                    continue
                label = ('e', cb.root_index[s])
                assert list(br) == [label]
                n_ab = br[label]
                assert cb.bracket(('e', b), ('e', a)) == {label: -n_ab}
                p = 0
                while tuple(y - (p + 1) * x
                            for x, y in zip(alpha, beta)) in root_set:
                    p += 1
                assert abs(n_ab) == p + 1, (name, alpha, beta)


def test_label_rows_are_commutators_of_their_defining_pairs():
    """Every non-simple root label acts, on each fundamental rep of every
    catalog type, as the dense commutator of its defining pair scaled by
    fsign / divisor (f side) or 1 / divisor (e side)."""
    for name in rootdata.CATALOG:
        datum = _datum(name)
        ws = grouprep.workspace(datum)
        cb = ws.chev
        for i in range(datum.n):
            rep = ws.fundamental_rep(i)
            for idx, (j, bidx, div, fsign) in cb.defpair.items():
                for kind in 'ef':
                    a = _label_matrix(rep, (kind, cb.simple_index[j]))
                    b = _label_matrix(rep, (kind, bidx))
                    c = F(fsign if kind == 'f' else 1, div)
                    want = [[c * (x - y) for x, y in zip(rab, rba)]
                            for rab, rba in zip(linalg.mat_mul(a, b),
                                                linalg.mat_mul(b, a))]
                    assert _label_matrix(rep, (kind, idx)) == want


def test_adjoint_module_dimension_and_labels():
    datum = _datum("B2")
    cb = liealg.chevalley_basis(datum)
    adj = liealg.adjoint_module(cb)
    assert adj.dimension == 10
    kinds = [l[0] for l in adj.labels]
    assert kinds.count('e') == 4 and kinds.count('f') == 4
    assert kinds.count('h') == 2


def test_adjoint_module_reducible_is_direct_sum():
    datum = _datum("A1xA1")
    cb = liealg.chevalley_basis(datum)
    adj = liealg.adjoint_module(cb)
    assert adj.dimension == 6


def _is_sparse_rows(rows, dim):
    """dim rows, each of (col, value) pairs with ascending columns in range
    and no zero value."""
    return len(rows) == dim and all(
        all(v != 0 for _, v in row)
        and all(0 <= c < dim for c, _ in row)
        and all(a < b for (a, _), (b, _) in zip(row, row[1:]))
        for row in rows)


def test_every_module_is_built_as_sparse_rows():
    """The fundamental, adjoint and power modules of every catalog type
    carry act_e and act_f as sparse rows: ascending columns, no zeros."""
    from petersonlab.verify import POWER_MINOR_TYPES
    for name in sorted(rootdata.CATALOG):
        ws = grouprep.workspace(_datum(name))
        n = ws.datum.n
        reps = [ws.fundamental_rep(i) for i in range(n)] + [ws.adjoint_rep()]
        if name in POWER_MINOR_TYPES:
            reps += [ws.power_rep(i) for i in range(n)]
        for rep in reps:
            mod = rep.module
            for i in range(n):
                assert _is_sparse_rows(mod.act_e[i], mod.dimension), name
                assert _is_sparse_rows(mod.act_f[i], mod.dimension), name


def test_builder_eliminates_once_per_weight_group(monkeypatch):
    """Each candidate weight group with a nonzero e-image takes one
    linalg._echelon, and nothing is solved or inverted: building G2 (1, 1)
    makes one _echelon per weight below the highest, no solve_matrix,
    inverse or mat_vec call, and an integer symmetric Gram."""
    datum = _datum("G2")    # building the datum takes its own eliminations
    calls = {"inverse": 0, "mat_vec": 0, "solve_matrix": 0, "_echelon": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(linalg, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(linalg, name, counted)
    mod = liealg._build_irreducible(datum, (1, 1))
    assert mod.dimension == 64
    assert calls == {"inverse": 0, "mat_vec": 0, "solve_matrix": 0,
                     "_echelon": len(set(mod.weights)) - 1}
    assert all(type(v) is int for row in mod.gram for v in row)
    assert all(mod.gram[a][b] == mod.gram[b][a]
               for a in range(64) for b in range(64))


class _Verma:
    """Formal Verma module combinatorics for highest weight lam: the
    reference builder's contravariant (Shapovalov) form on f-words."""

    def __init__(self, datum, lam):
        self.datum = datum
        self.lam = tuple(int(v) for v in lam)
        self._e_memo = {}
        self._shap_memo = {}

    def word_weight(self, word):
        w = list(self.lam)
        for i in word:
            row = self.datum.pairing[i]
            for j in range(self.datum.n):
                w[j] -= row[j]
        return tuple(w)

    def e_apply(self, i, word):
        """Expansion of e_i . f_word as a tuple of (word, coeff)."""
        key = (i, word)
        hit = self._e_memo.get(key)
        if hit is not None:
            return hit
        if not word:
            out = ()
        else:
            j, rest = word[0], word[1:]
            acc = {}
            for w2, c in self.e_apply(i, rest):
                k = (j,) + w2
                acc[k] = acc.get(k, 0) + c
            if i == j:
                c = self.word_weight(rest)[i]
                if c:
                    acc[rest] = acc.get(rest, 0) + c
            out = tuple((w, c) for w, c in acc.items() if c)
        self._e_memo[key] = out
        return out

    def shap(self, u, w):
        """Contravariant form <f_u v, f_w v> on the Verma module."""
        if not u:
            return int(not w)
        key = (u, w) if u <= w else (w, u)
        hit = self._shap_memo.get(key)
        if hit is not None:
            return hit
        val = sum(c * self.shap(u[1:], w2)
                  for w2, c in self.e_apply(u[0], w))
        self._shap_memo[key] = val
        return val


def _shapovalov_module(datum, lam):
    """(weights, act_e, act_f, gram) of the irreducible module by the
    Verma quotient: basis words picked by one echelon of the recursive
    Shapovalov Gram per weight, and every action image solved against the
    Gram block of its weight space."""
    vm = _Verma(datum, lam)
    level = [()]
    basis = [()]
    while True:
        cands = sorted({(i,) + b for b in level for i in range(datum.n)},
                       key=lambda w: (vm.word_weight(w), w))
        by_weight = {}
        for w in cands:
            by_weight.setdefault(vm.word_weight(w), []).append(w)
        new_level = []
        for mu in sorted(by_weight, reverse=True):
            group = by_weight[mu]
            g = [[vm.shap(a, b) for b in group] for a in group]
            new_level.extend(group[p] for p in linalg._echelon(g)[1])
        if not new_level:
            break
        level = new_level
        basis.extend(level)
    dim = len(basis)
    weights = [vm.word_weight(b) for b in basis]
    index_by_weight = {}
    for idx, mu in enumerate(weights):
        index_by_weight.setdefault(mu, []).append(idx)
    gram = [[0] * dim for _ in range(dim)]
    act_e = [[{} for _ in range(dim)] for _ in range(datum.n)]
    act_f = [[{} for _ in range(dim)] for _ in range(datum.n)]
    for nu, idxs in index_by_weight.items():
        rows = [basis[a] for a in idxs]
        block = [[vm.shap(u, w) for w in rows] for u in rows]
        for a, row in zip(idxs, block):
            for b, v in zip(idxs, row):
                gram[a][b] = v
        targets, columns = [], []
        for i, alpha in enumerate(datum.pairing):
            for col in index_by_weight.get(
                    tuple(v + x for v, x in zip(nu, alpha)), ()):
                targets.append((act_f[i], col))
                columns.append([vm.shap(u, (i,) + basis[col]) for u in rows])
            for col in index_by_weight.get(
                    tuple(v - x for v, x in zip(nu, alpha)), ()):
                expansion = vm.e_apply(i, basis[col])
                targets.append((act_e[i], col))
                columns.append([sum(c * vm.shap(u, w) for w, c in expansion)
                                for u in rows])
        rhs = [[column[k] for column in columns] for k in range(len(idxs))]
        solved = linalg.solve_matrix(block, rhs)
        for (act, col), coeffs in zip(targets, zip(*solved)):
            for a, c in zip(idxs, coeffs):
                act[a][col] = c
    return (tuple(weights),
            tuple(liealg.sparse_rows(rows) for rows in act_e),
            tuple(liealg.sparse_rows(rows) for rows in act_f),
            tuple(tuple(row) for row in gram))


def test_builder_matches_shapovalov_reference():
    """The e-image builder gives, repr for repr, the weights, actions and
    Gram of the Shapovalov-quotient reference: on every fundamental module
    of every catalog type, the power modules of POWER_MINOR_TYPES, and
    V(rho) on rank <= 2."""
    from petersonlab.verify import POWER_MINOR_TYPES
    for name in sorted(rootdata.CATALOG):
        datum = _datum(name)
        n = datum.n
        lams = {_fund(datum, i) for i in range(n)}
        if name in POWER_MINOR_TYPES:
            m = rootdata.fundamental_exponents(datum)
            lams |= {tuple(m[i] * v for v in _fund(datum, i))
                     for i in range(n)}
        if n <= 2:
            lams.add((1,) * n)
        for lam in sorted(lams):
            mod = liealg._build_irreducible(datum, lam)
            got = (mod.weights, mod.act_e, mod.act_f, mod.gram)
            assert repr(got) == repr(_shapovalov_module(datum, lam)), \
                (name, lam)


# sha256 of repr((sorted(brackets.items()), sorted(defpair.items()))),
# recorded from the Fraction-row Chevalley construction
CHEVALLEY_DIGESTS = {
    "A1": "1fe2c28a9e3c3470602ba4eefde3544742e17b06f1e1c9f140c002c588e01850",
    "A1xA1":
        "a862194a846962d01d8446fb215a11a4d6d356a2c66cd15c86234bc3b21167d5",
    "A2": "d01ebdf94232742ca0362e096b2207ebc850f3d593ff62224b4f6949305cff70",
    "A2xA1":
        "be1641a193b7942db107e752cf0b778b15dfb60760de08ff3beb69c1390bff32",
    "A3": "361de9e361a99a89bab8566bf3799d9c38650c996920d25e54478caf17f10861",
    "A4": "75e6d2e55c7ce431a8c555c8a9b125fe775a244fe5bb9ca4888ff28222e7043a",
    "B2": "b7efdeab59aba58a04fdd86c37d3eff0d050c51ccfc7f542cf80f9d935f4f00d",
    "B3": "196724172398658e96b46673a3dfcfb3e15f94f2986f982e2d619e6038b304ab",
    "C3": "f513500f0e853cceef4a30212e71f163675d63c9eed219293d1521ddce9e66fb",
    "D4": "5b45f78179a1397877a80f4e33650b01de3c1a049eeb0a160f5b3950c5d806a1",
    "G2": "106f19a5fa576668cadd8187f4231fab5b5711c34a2c037df9ddb38d048ff3be",
}


def test_chevalley_basis_outputs_are_pinned():
    """The integer Chevalley construction keeps every bracket and defining
    pair, value and number type alike, on every catalog type."""
    assert set(CHEVALLEY_DIGESTS) == set(rootdata.CATALOG)
    for name, want in CHEVALLEY_DIGESTS.items():
        cb = liealg.chevalley_basis(_datum(name))
        got = repr((sorted(cb.brackets.items()), sorted(cb.defpair.items())))
        assert hashlib.sha256(got.encode()).hexdigest() == want, name
