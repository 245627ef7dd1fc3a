"""Chevalley bases and exact finite-dimensional highest-weight modules.

Modules are built as Verma quotients: f-monomials applied to a formal
highest vector, quotiented by the radical of the recursively computed
contravariant (Shapovalov) Gram matrix.  The form is computed in
integers, and each weight space takes one linalg.solve_matrix on its
integer Gram block for every e_i and f_i image that lands in it, so the
actions are exact rationals.

Structure constants are obtained by realizing root vectors, as sparse
exact commutators, inside a small faithful fundamental module per Dynkin
component: for each non-simple positive root gamma the defining pair is
(i, gamma - alpha_i) with i the smallest qualifying node (extraspecial-
pair convention), the divisor is p+1 for the alpha_i-string through
gamma - alpha_i, and the f-side sign is fixed by
[e_gamma, f_gamma] = h_{gamma^vee}.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, rootdata

DIMENSION_CAP = 400

ZERO = Fraction(0)
ONE = Fraction(1)


def weyl_dimension(datum, lam):
    """Weyl dimension formula, evaluated exactly in integers."""
    n = datum.n
    num = den = 1
    d = datum.symmetrizer
    for root in datum.positive_roots:
        num *= sum((lam[j] + 1) * root[j] * d[j] for j in range(n))
        den *= sum(root[j] * d[j] for j in range(n))
    if num % den:
        raise AssertionError("Weyl dimension %d/%d is not an integer"
                             % (num, den))
    return num // den


# ---------------------------------------------------------------------------
# Verma-quotient machinery


class _Verma:
    """Formal Verma module combinatorics for highest weight lam."""

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


@dataclass
class WeightModule:
    """Finite-dimensional highest-weight module with exact matrices.

    Action matrices are stored sparsely: act_e[i] / act_f[i] are tuples
    over row index of tuples (col, value), as sparse_rows emits them.
    Weights are in fundamental-weight coordinates; the highest-weight
    vector is basis index 0.  An irreducible module carries its
    contravariant form as an integer matrix, with gram[0][0] = 1; the
    adjoint module carries none.
    """

    datum: object
    highest_weight: tuple
    dimension: int
    weights: tuple            # per basis index
    act_e: tuple              # per node: sparse rows
    act_f: tuple
    gram: tuple = None        # dense integer symmetric matrix, else None
    labels: tuple = None      # adjoint identification, else None

    def act_h_diag(self, i):
        return [Fraction(w[i]) for w in self.weights]

    def sparse_to_dense(self, sp):
        m = [[ZERO] * self.dimension for _ in range(self.dimension)]
        for r, row in enumerate(sp):
            for c, v in row:
                m[r][c] = v
        return m

    def e_dense(self, i):
        return self.sparse_to_dense(self.act_e[i])

    def f_dense(self, i):
        return self.sparse_to_dense(self.act_f[i])


def sparse_rows(acc):
    """One {col: value} dict per row as sparse rows: per row, ascending
    (col, value) pairs with no zeros, so equal matrices give equal
    tuples."""
    return tuple(tuple(sorted((c, v) for c, v in row.items() if v))
                 for row in acc)


class DimensionCapError(ValueError):
    pass


def _build_irreducible(datum, lam):
    lam = tuple(int(v) for v in lam)
    if any(v < 0 for v in lam):
        raise ValueError("highest weight must be dominant integral")
    dim = weyl_dimension(datum, lam)
    if dim > DIMENSION_CAP:
        raise DimensionCapError("module dimension %d (Weyl formula) exceeds "
                                "cap %d" % (dim, DIMENSION_CAP))
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
        if len(basis) > dim:
            raise AssertionError("basis exceeded Weyl dimension")
    if len(basis) != dim:
        raise AssertionError("module basis has %d vectors, Weyl dimension "
                             "is %d" % (len(basis), dim))

    weights = [vm.word_weight(b) for b in basis]
    index_by_weight = {}
    for idx, mu in enumerate(weights):
        index_by_weight.setdefault(mu, []).append(idx)

    # per weight space nu: the Gram block, read once, and one solve for
    # every e_i and f_i image landing in nu, each as its column (<b_a, x>)_a
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

    return WeightModule(
        datum=datum,
        highest_weight=lam,
        dimension=dim,
        weights=tuple(weights),
        act_e=tuple(sparse_rows(rows) for rows in act_e),
        act_f=tuple(sparse_rows(rows) for rows in act_f),
        gram=tuple(tuple(row) for row in gram),
    )


# ---------------------------------------------------------------------------
# Chevalley basis


@dataclass
class ChevalleyBasis:
    """Chevalley basis data: labels, defining pairs and a bracket table
    that holds the nonzero brackets of root labels only.

    Labels are ('e', r), ('f', r) with r an index into
    datum.positive_roots, and ('h', i) with i a node index.
    """

    datum: object
    root_index: dict          # root tuple -> index
    simple_index: tuple       # node i -> positive-root index of alpha_i
    defpair: dict             # root idx -> (node i, beta idx, divisor, fsign)
    brackets: dict            # (labelA < labelB) -> {label: Fraction}
    modules: dict             # highest weight -> module built per component

    def bracket(self, a, b):
        """Bracket of two basis labels as a {label: coeff} dict."""
        if a[0] == 'h' and b[0] == 'h':
            return {}
        if a[0] == 'h':
            out = self.bracket(b, a)
            return {k: -v for k, v in out.items()}
        if b[0] == 'h':
            root = self.datum.positive_roots[a[1]]
            sign = 1 if a[0] == 'e' else -1
            c = sign * self.datum.root_pair_coroot(root, b[1])
            return {a: -Fraction(c)} if c else {}
        key = (a, b)
        if key in self.brackets:
            return dict(self.brackets[key])
        rkey = (b, a)
        if rkey in self.brackets:
            return {k: -v for k, v in self.brackets[rkey].items()}
        return {}

    def bracket_elements(self, xa, xb):
        """Bilinear extension of bracket to {label: coeff} elements."""
        out = {}
        for la, ca in xa.items():
            for lb, cb in xb.items():
                for l, c in self.bracket(la, lb).items():
                    v = out.get(l, ZERO) + ca * cb * c
                    if v:
                        out[l] = v
                    elif l in out:
                        del out[l]
        return out


def commutator(a, b, scale=ONE):
    """scale * (ab - ba) for matrices given as sparse rows (see
    sparse_rows; as in WeightModule.act_e), in the same format.  Only
    nonzero products are formed; the entries may be of any number type."""
    out = []
    for ra, rb in zip(a, b):
        acc = {}
        for t, x in ra:
            for c, y in b[t]:
                acc[c] = acc.get(c, 0) + x * y
        for t, x in rb:
            for c, y in a[t]:
                acc[c] = acc.get(c, 0) - x * y
        out.append(tuple((c, scale * v) for c, v in sorted(acc.items()) if v))
    return tuple(out)


def combination(terms, dim):
    """sum of c * rows over the (c, rows) pairs of dim x dim sparse rows,
    as sparse rows; the entries may be of any number type."""
    acc = [{} for _ in range(dim)]
    for c, rows in terms:
        for a, row in zip(acc, rows):
            for col, v in row:
                a[col] = a.get(col, 0) + c * v
    return sparse_rows(acc)


def _smallest_fundamental_module(datum, comp):
    """A faithful fundamental module of a component: its smallest one."""
    best = None
    for i in comp:
        lam = tuple(1 if j == i else 0 for j in range(datum.n))
        d = weyl_dimension(datum, lam)
        if best is None or d < best[0]:
            best = (d, lam)
    return _build_irreducible(datum, best[1])


def chevalley_basis(datum):
    n = datum.n
    roots = datum.positive_roots
    root_index = {r: k for k, r in enumerate(roots)}
    simple_index = tuple(
        root_index[tuple(1 if j == i else 0 for j in range(n))]
        for i in range(n))
    root_set = set(roots)

    def is_root(vec):
        return vec in root_set or tuple(-v for v in vec) in root_set

    comps = rootdata.dynkin_components(datum)

    defpair = {}
    coroots = {idx: datum.coroot_of(r) for idx, r in enumerate(roots)}
    brackets = {}
    modules = {}

    for comp in comps:
        mod = _smallest_fundamental_module(datum, comp)
        modules[mod.highest_weight] = mod
        dim = mod.dimension
        emat = {}
        fmat = {}
        for i in comp:
            emat[simple_index[i]] = mod.act_e[i]
            fmat[simple_index[i]] = mod.act_f[i]

        comp_root_idxs = [root_index[r] for r in
                          rootdata.positive_roots_supported_on(datum, comp)]

        for idx in comp_root_idxs:
            root = roots[idx]
            if sum(root) == 1:
                continue
            i = next(i for i in comp
                     if root[i] > 0 and
                     tuple(root[j] - (1 if j == i else 0) for j in range(n))
                     in root_set)
            beta = tuple(root[j] - (1 if j == i else 0) for j in range(n))
            bidx = root_index[beta]
            p = 0   # the alpha_i-string through beta reaches beta - p alpha_i
            while is_root(tuple(beta[j] - (p + 1) * (j == i)
                                for j in range(n))):
                p += 1
            div = Fraction(p + 1)
            egam = commutator(emat[simple_index[i]], emat[bidx], ONE / div)
            if not any(egam):
                raise AssertionError("root vector %d vanishes" % idx)
            fgam = commutator(fmat[simple_index[i]], fmat[bidx], ONE / div)
            h = commutator(egam, fgam)
            cor = coroots[idx]
            expected = tuple(((k, d),) if d else () for k, d in enumerate(
                sum(Fraction(w[j]) * cor[j] for j in range(n))
                for w in mod.weights))
            if h == expected:
                fsign = 1
            elif h == combination([(-1, expected)], dim):
                fsign = -1
                fgam = combination([(-1, fgam)], dim)
            else:
                raise AssertionError("coroot normalization failed")
            defpair[idx] = (i, bidx, int(div), fsign)
            emat[idx] = egam
            fmat[idx] = fgam

        # read off the nonzero brackets on this component
        labeled = ([(('e', idx), roots[idx], emat[idx]) for idx in comp_root_idxs]
                   + [(('f', idx), tuple(-v for v in roots[idx]), fmat[idx])
                      for idx in comp_root_idxs])
        mats = {lab: m for lab, _, m in labeled}
        hmats = {i: commutator(emat[simple_index[i]], fmat[simple_index[i]])
                 for i in comp}
        for la, va, ma in labeled:
            for lb, vb, mb in labeled:
                if la >= lb:
                    continue
                c = commutator(ma, mb)
                s = tuple(x + y for x, y in zip(va, vb))
                if all(v == 0 for v in s):
                    idx = la[1]
                    cor = coroots[idx]
                    coeffs = {('h', j): (cor[j] if la[0] == 'e' else -cor[j])
                              for j in comp if cor[j]}
                    check = combination(
                        [(cj, hmats[lab[1]]) for lab, cj in coeffs.items()],
                        dim)
                    if c != check:
                        raise AssertionError("h-part bracket mismatch")
                    brackets[(la, lb)] = coeffs
                elif is_root(s):
                    tgt = (('e', root_index[s]) if s in root_set
                           else ('f', root_index[tuple(-v for v in s)]))
                    tm = mats[tgt]
                    r, (col, v) = next((r, row[0])
                                       for r, row in enumerate(tm) if row)
                    scal = dict(c[r]).get(col, ZERO) / v
                    if c != combination([(scal, tm)], dim):
                        raise AssertionError("bracket not a root vector")
                    if scal.denominator != 1:
                        raise AssertionError("non-integral structure constant")
                    if scal:
                        brackets[(la, lb)] = {tgt: scal}
                elif any(c):
                    raise AssertionError("non-root bracket must vanish")

    return ChevalleyBasis(
        datum=datum,
        root_index=root_index,
        simple_index=simple_index,
        defpair=defpair,
        brackets=brackets,
        modules=modules,
    )


def adjoint_module(basis):
    """The adjoint module realized by the bracket action.

    Basis slots carry Chevalley labels; for reducible data this is the
    direct sum of the per-component adjoint modules in one object.  It
    carries no contravariant form (gram is None).
    """
    datum = basis.datum
    n = datum.n
    roots = datum.positive_roots

    def label_key(lab):
        if lab[0] == 'e':
            return (-sum(roots[lab[1]]), roots[lab[1]])
        if lab[0] == 'h':
            return (0, (lab[1],))
        return (sum(roots[lab[1]]), roots[lab[1]])

    labels = ([('e', idx) for idx in range(len(roots))]
              + [('h', i) for i in range(n)]
              + [('f', idx) for idx in range(len(roots))])
    labels.sort(key=label_key)
    slot = {lab: k for k, lab in enumerate(labels)}
    dim = len(labels)

    def label_weight(lab):
        if lab[0] == 'h':
            return tuple(0 for _ in range(n))
        w = datum.root_to_weight_coords(roots[lab[1]])
        return w if lab[0] == 'e' else tuple(-v for v in w)

    weights = tuple(label_weight(lab) for lab in labels)

    def action_rows(gen_label):
        rows = [{} for _ in range(dim)]
        for col, lab in enumerate(labels):
            for out_lab, c in basis.bracket(gen_label, lab).items():
                rows[slot[out_lab]][col] = c
        return sparse_rows(rows)

    act_e = tuple(action_rows(('e', basis.simple_index[i])) for i in range(n))
    act_f = tuple(action_rows(('f', basis.simple_index[i])) for i in range(n))

    return WeightModule(
        datum=datum,
        highest_weight=weights[0],
        dimension=dim,
        weights=weights,
        act_e=act_e,
        act_f=act_f,
        labels=tuple(labels),
    )
