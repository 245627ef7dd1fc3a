"""Group elements as exact matrices across modules, and the scalar
functions built from them: fundamental minors, adjoint-type minors,
adjoint-orbit coefficients, TNN samplers and the Workspace's integer
polynomial forms, among them the one form per J of the minors and the
varying matrix entries on the fundamental modules that theorem59's
certificate reads.

A group element is a word in tokens
    ('x', i, t)   exp(t e_i)
    ('y', i, t)   exp(t f_i)
    ('s', i)      y_i(1) x_i(-1) y_i(1)
    ('si', i)     the inverse of ('s', i)
    ('exp', elem) exp of a nilpotent Lie element (sorted label/coeff pairs)
with t exact rational.  Evaluation is lazy per module and favors
vector application over full matrix products.  Evaluation runs in
integers: a vector is one pair (integer numerators, den) in lowest terms,
which Rep.apply_word takes and returns, and each action matrix is integer
rows over one denominator; each exp step visits only the nonempty rows of
its generator.  Fractions are made only where a value leaves grouprep:
one per minor, and each entry of GroupElement.apply and .matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
import functools
import itertools
from math import gcd, lcm, prod
import random

from . import linalg, liealg, polytope, rootdata

ZERO = Fraction(0)
ONE = Fraction(1)


# -- the integer kernel ------------------------------------------------

def _nonempty(rows):
    """The indices of the nonempty rows of a sparse matrix."""
    return tuple(r for r, row in enumerate(rows) if row)


def _mat_vec(rows, nonempty, vec):
    """rows . vec for integer sparse rows, whose nonempty rows are
    `nonempty`, and an integer vector, as {row: value} of its nonzero
    entries: only the nonempty rows are visited."""
    out = {}
    for r in nonempty:
        s = 0
        for c, v in rows[r]:
            x = vec[c]
            if x:
                s += v * x
        if s:
            out[r] = s
    return out


def _int_exp_apply(rows, den_m, nonempty, t, nums, den):
    """exp(t M) applied to nums / den, for nilpotent M = rows / den_m
    whose nonempty rows are `nonempty`.

    With t = p/q the k-th term is p^k M^k nums over den * D_k, where D_k
    = prod_{j<=k} (den_m q j).  Each M^k nums is kept sparse, on the
    nonempty rows.  Over den * D_K the sum is nums * D_K plus each term
    times D_K / D_k, added at the term's rows only; it is reduced by one
    gcd.

    A step that fixes the vector (M nums = 0) returns nums and den as they
    are, with no gcd: Rep.apply_word holds every vector in lowest terms,
    since its caller's pair is in lowest terms and every other step ends
    with this gcd."""
    term = _mat_vec(rows, nonempty, nums)
    if not term:
        return nums, den
    terms = []
    while term:
        terms.append(term)
        if len(terms) > len(nums) + 1:
            raise AssertionError("generator is not nilpotent")
        vec = [0] * len(nums)
        for r, v in term.items():
            vec[r] = v
        term = _mat_vec(rows, nonempty, vec)
    p, q = t.numerator, t.denominator
    scales = [1]    # D_0, ..., D_K
    for k in range(1, len(terms) + 1):
        scales.append(scales[-1] * den_m * q * k)
    total = scales[-1]
    out = [v * total for v in nums]
    for k, term in enumerate(terms, 1):
        c = p ** k * (total // scales[k])
        for r, v in term.items():
            out[r] += c * v
    den *= total
    g = gcd(den, *out)
    if g > 1:
        out = [a // g for a in out]
        den //= g
    return out, den


# x and y tokens, and ('s', i) and ('si', i) as products of exp tokens
# (left to right), on the actions of the Chevalley labels of node i
_KIND = {'x': 'e', 'y': 'f'}
_S_STEPS = {'s': (('f', ONE), ('e', -ONE), ('f', ONE)),
            'si': (('f', -ONE), ('e', ONE), ('f', -ONE))}


class Rep:
    """A weight module prepared for exact group-element evaluation."""

    def __init__(self, module, chev):
        self.module = module
        self.chev = chev
        self.dim = module.dimension
        # Chevalley label -> (integer rows, R, indices of the nonempty rows)
        self._int_cache = {}

    def apply_word(self, word, nums, den):
        """The word's matrix applied to the column vector nums / den, given
        in lowest terms, as (numerators, den) in lowest terms: every step
        runs in integers."""
        for token in reversed(word):
            for step in self._int_steps(token):
                nums, den = _int_exp_apply(*step, nums, den)
        return nums, den

    def _int_steps(self, token):
        """(integer rows, denominator, nonempty rows, t) of each exp(t M)
        in a token."""
        kind = token[0]
        simple = self.chev.simple_index
        if kind in _KIND:
            return [self._int_matrix((_KIND[kind], simple[token[1]]))
                    + (token[2],)]
        if kind in _S_STEPS:
            return [self._int_matrix((k, simple[token[1]])) + (t,)
                    for k, t in _S_STEPS[kind]]
        if kind == 'exp':
            return [self._int_element(token[1]) + (ONE,)]
        raise ValueError("unknown token %r" % (token,))

    def _int_label(self, label):
        """(integer rows, R) of a Chevalley label's action, rows / R."""
        return self._int_matrix(label)[:2]

    def _int_matrix(self, label):
        """(integer rows, R, nonempty rows) of a Chevalley label's action,
        built once: a simple label's from the module, any other label's as
        the sparse commutator of its defining pair."""
        if label not in self._int_cache:
            kind, idx = label
            simple = self.chev.simple_index
            if kind not in ('e', 'f'):
                raise KeyError(label)
            if idx in simple:
                act = self.module.act_e if kind == 'e' else self.module.act_f
                (rows,), den = liealg.integer_rows([act[simple.index(idx)]])
            else:
                i, bidx, div, fsign = self.chev.defpair[idx]
                a, da = self._int_label((kind, simple[i]))
                b, db = self._int_label((kind, bidx))
                rows, den = liealg.lowest_terms(
                    liealg.scaled(liealg.commutator(a, b),
                                  fsign if kind == 'f' else 1), div * da * db)
            self._int_cache[label] = rows, den, _nonempty(rows)
        return self._int_cache[label]

    def _int_element(self, elem):
        """Sparse matrix of a Lie element given as ((label, coeff), ...),
        as (integer rows, denominator, nonempty rows)."""
        parts = [(Fraction(coeff), self._int_label(label))
                 for label, coeff in elem]
        den = lcm(*(c.denominator * d for c, (_, d) in parts))
        rows = liealg.combination(
            [(c.numerator * (den // (c.denominator * d)), rows)
             for c, (rows, d) in parts], self.dim)
        return rows, den, _nonempty(rows)

    def unit(self, k):
        return [int(r == k) for r in range(self.dim)]


def _invert_token(token):
    kind = token[0]
    if kind in ('x', 'y'):
        return (kind, token[1], -token[2])
    if kind == 's':
        return ('si', token[1])
    if kind == 'si':
        return ('s', token[1])
    if kind == 'exp':
        return ('exp', tuple((l, -c) for l, c in token[1]))
    raise ValueError(token)


@dataclass(frozen=True)
class GroupElement:
    word: tuple

    def __mul__(self, other):
        return GroupElement(self.word + other.word)

    def inverse(self):
        return GroupElement(tuple(_invert_token(t)
                                  for t in reversed(self.word)))

    def apply(self, rep, vec):
        """Matrix of the element applied to a column vector, as Fractions."""
        nums, den = rep.apply_word(self.word, *linalg.integer_row(vec))
        return [Fraction(v, den) if v else ZERO for v in nums]

    def row_apply(self, rep, row):
        """Row vector times the matrix of the element."""
        return linalg.mat_vec(linalg.transpose(self.matrix(rep)), row)

    def matrix(self, rep):
        cols = [rep.apply_word(self.word, rep.unit(c), 1)
                for c in range(rep.dim)]
        return [[Fraction(nums[r], den) if nums[r] else ZERO
                 for nums, den in cols] for r in range(rep.dim)]


def x_(i, t):
    return GroupElement((('x', i, Fraction(t)),))


def y_(i, t):
    return GroupElement((('y', i, Fraction(t)),))


def sdot(i):
    return GroupElement((('s', i),))


def sdot_inv(i):
    return GroupElement((('si', i),))


def identity_element():
    return GroupElement(())


def wdot(w):
    word = w.word if hasattr(w, 'word') else tuple(w)
    return GroupElement(tuple(('s', i) for i in word))


def exp_element(elem):
    """exp of a Lie element given as a {label: coeff} dict."""
    items = tuple(sorted((l, Fraction(c)) for l, c in elem.items() if c))
    return GroupElement((('exp', items),))


class Workspace:
    """Lazily built registry of the reps, longest elements, extremal
    vectors, centralizer bases, Dynkin components, minor, q, matrix and
    certificate polynomials, float Newton terms and weight polytopes of
    one root datum, in one keyed store.  `peterson` keeps its Newton grid
    values there too."""

    def __init__(self, datum):
        self.datum = datum
        self._store = {}

    def _once(self, key, build):
        """The value stored under key, from build() on first use."""
        if key not in self._store:
            self._store[key] = build()
        return self._store[key]

    @property
    def chev(self):
        return self._once('chev', lambda: liealg.chevalley_basis(self.datum))

    @property
    def exponents(self):
        return self._once('exponents',
                          lambda: rootdata.fundamental_exponents(self.datum))

    def rep(self, lam):
        """The rep of V(lam), on the Chevalley basis's own module if any."""
        lam = tuple(int(v) for v in lam)
        return self._once(('rep', lam), lambda: Rep(
            self.chev.modules.get(lam)
            or liealg._build_irreducible(self.datum, lam), self.chev))

    def fundamental_rep(self, i):
        lam = tuple(1 if j == i else 0 for j in range(self.datum.n))
        return self.rep(lam)

    def power_rep(self, i):
        m = self.exponents[i]
        lam = tuple(m if j == i else 0 for j in range(self.datum.n))
        return self.rep(lam)

    def adjoint_rep(self):
        return self._once('adjoint', lambda: Rep(
            liealg.adjoint_module(self.chev), self.chev))

    def w0(self):
        return self.longest(range(self.datum.n))

    def longest(self, J):
        """rootdata.longest_element(datum, J), built once per J."""
        J = tuple(sorted(set(J)))
        return self._once(('longest', J),
                          lambda: rootdata.longest_element(self.datum, J))

    def extremal_vector(self, lam, J):
        """wdot(w_J) v_lam on the rep of V(lam), v_lam its highest-weight
        vector, as a shared pair (integer numerators, den) in lowest terms,
        built once per (lam, J)."""
        lam = tuple(int(v) for v in lam)
        J = tuple(sorted(set(J)))

        def build():
            rep = self.rep(lam)
            nums, den = rep.apply_word(wdot(self.longest(J)).word,
                                       rep.unit(0), 1)
            return tuple(nums), den
        return self._once(('extremal', lam, J), build)

    def centralizer(self, J):
        """centralizer_basis(self, J), built once per J and shared: callers
        must not modify it."""
        J = tuple(sorted(set(J)))
        return self._once(('centralizer', J),
                          lambda: centralizer_basis(self, J))

    def components(self, J):
        """rootdata.dynkin_components(datum, J) as tuples, built once per
        J."""
        J = tuple(sorted(set(J)))
        return self._once(('components', J), lambda: tuple(
            map(tuple, rootdata.dynkin_components(self.datum, J))))

    def polytope(self, lam):
        """polytope.build_polytope(datum, lam), the pair (P^lam, its face
        lattice), built once per lam and shared: callers must not modify
        it."""
        lam = tuple(Fraction(v) for v in lam)
        return self._once(('polytope', lam),
                          lambda: polytope.build_polytope(self.datum, lam))

    def minor_polynomials(self, J):
        """Delta_i(exp(sum c_k b_k) wdot(w_J)) for each node i, as shared
        IntegerPolynomials in the c_k, built once per J: the
        highest-weight coordinate of the exp series from wdot(w_J) v_i."""
        J = tuple(sorted(set(J)))

        def build():
            polys = []
            for rep in map(self.fundamental_rep, range(self.datum.n)):
                polys += _exp_series(self, J, rep, *self.extremal_vector(
                    rep.module.highest_weight, J), rows=(0,))
            return IntegerPolynomials(polys)
        return self._once(('minors', J), build)

    def matrix_polynomials(self, J, i):
        """The entries of exp(sum c_k b_k) on fundamental_rep(i), row by
        row, as shared IntegerPolynomials, built once per (J, i): column c
        is the exp series from the unit vector v_c.  On a type-A
        component, V(w_k) = Lambda^k V(w_1), so the entries on node k are
        the k x k minors of the matrix on node 1: certificate_polynomials
        reads them for theorem59's TNN test."""
        J = tuple(sorted(set(J)))

        def build():
            rep = self.fundamental_rep(i)
            cols = [_exp_series(self, J, rep, rep.unit(c), 1)
                    for c in range(rep.dim)]
            return IntegerPolynomials([f for row in zip(*cols) for f in row])
        return self._once(('matrix', J, i), build)

    def q_polynomials(self, J):
        """q_i(exp(X) wdot(w_J)) for each node i, X = sum c_k b_k, as shared
        IntegerPolynomials in the c_k, built once per J.

        q_i(g) is minus the f_i coordinate of Ad_{g^{-1}}(e) =
        wdot(w_J)^{-1} exp(-X) e on the adjoint rep.  wdot(w_J) maps root
        spaces to root spaces: it sends the unit vector of f_i to s_i times
        that of c_i, the label of the root -w_J alpha_i, with s_i = +-1.
        So row f_i of wdot(w_J)^{-1} is 1/s_i at column c_i alone, and q_i
        is -1/s_i times slot c_i of the exp series from u = e, its
        odd-degree terms negated (exp(-X)).  Raises ValueError where
        wdot(w_J) does not send f_i to +-c_i, with denominator 1."""
        J = tuple(sorted(set(J)))

        def build():
            rep = self.adjoint_rep()
            labels = rep.module.labels
            w = self.longest(J)
            slots, signs = [], []
            for i, idx in enumerate(self.chev.simple_index):
                image, den = rep.apply_word(
                    wdot(w).word, rep.unit(labels.index(('f', idx))), 1)
                root = tuple(-v for v in w.act_on_root(
                    [int(j == i) for j in range(self.datum.n)]))
                label = ('e', self.chev.root_index[root]) \
                    if root in self.chev.root_index else \
                    ('f', self.chev.root_index[tuple(-v for v in root)])
                slot = labels.index(label)
                if den != 1 or image[slot] not in (1, -1) \
                        or sum(map(bool, image)) != 1:
                    raise ValueError("wdot(w_J) does not send f_%d to +-%s"
                                     % (i + 1, label))
                slots.append(slot)
                signs.append(image[slot])
            series = _exp_series(self, J, rep, regular_nilpotent_vector(self),
                                 1, rows=slots)
            return IntegerPolynomials([
                {e: (-1) ** sum(e) * a / -s for e, a in f.items()}
                for f, s in zip(series, signs)])
        return self._once(('q', J), build)

    def certificate_polynomials(self, J):
        """(form, slots, least): what theorem59's certificate of a point of
        J evaluates, built once per J and shared.

        form is one IntegerPolynomials: the n minor polynomials first,
        then each distinct non-constant entry of matrix_polynomials(J, i),
        i in J, that is no minor.  slots are the form's rows that the TNN
        test reads, one per distinct non-constant entry: an entry equal to
        a minor is read at that minor's row.  least is the least constant
        entry, exact (0 where J is empty and there is none)."""
        J = tuple(sorted(set(J)))

        def build():
            polys = self.minor_polynomials(J).rationals()
            rows = {}
            for r, f in enumerate(polys):
                rows.setdefault(frozenset(f.items()), r)
            slots, constants = set(), []
            for i in J:
                for f in self.matrix_polynomials(J, i).rationals():
                    if not any(map(any, f)):
                        constants.append(sum(f.values(), ZERO))
                        continue
                    key = frozenset(f.items())
                    if key not in rows:
                        rows[key] = len(polys)
                        polys.append(f)
                    slots.add(rows[key])
            return (IntegerPolynomials(polys), tuple(sorted(slots)),
                    min(constants, default=ZERO))
        return self._once(('certificate', J), build)

    def newton_terms(self, J):
        """(values, gradients): each minor polynomial of J, and each of
        its partial derivatives, as (float coefficient, ((k, e), ...))
        terms in the polynomial's own order, built once per J for a float
        Newton iteration.  A term lists only the coordinates k with
        exponent e > 0.  A partial derivative that is one constant term is
        stored as its float coefficient alone, the value its term list
        would sum to.  Each coefficient is one correctly rounded int
        division."""
        J = tuple(sorted(set(J)))

        def powers(e):
            return tuple((k, x) for k, x in enumerate(e) if x)

        def partial(f, k, den):
            terms = [(a * e[k] / den, powers(e[:k] + (e[k] - 1,) + e[k + 1:]))
                     for e, a in f if e[k]]
            if len(terms) == 1 and not terms[0][1]:
                return terms[0][0]
            return terms

        def build():
            ip = self.minor_polynomials(J)
            polys = [[(ip.monomials[j][0], a) for j, a in f]
                     for f in ip.terms]
            return ([[(a / ip.den, powers(e)) for e, a in f] for f in polys],
                    [[partial(f, k, ip.den) for k in range(len(J))]
                     for f in polys])
        return self._once(('newton', J), build)


def _exp_series(ws, J, rep, u, den, rows=None):
    """exp(X) u / den for X = sum c_k b_k over the centralizer basis of J
    and an integer vector u, as one {exponents of c: Fraction} polynomial
    per coordinate in rows (default: all).  X is nilpotent, so exp(X) u is
    the finite sum of X^m u / m!, taken in integers over one denominator."""
    basis = ws.centralizer(J)
    rows = range(rep.dim) if rows is None else rows
    # b_k acts as rows_k / d_k: expand in the c_k / d_k
    mats = [rep._int_element(tuple(b.items())) for b in basis]
    term = {(0,) * len(basis): u}
    polys, m = [{} for _ in rows], 0
    while term:     # den * X^m u / m!, in the c_k / d_k
        m += 1
        nxt = {}
        for e, vec in term.items():
            for poly, r in zip(polys, rows):
                if vec[r]:      # each e has one degree m
                    poly[e] = Fraction(vec[r], den * prod(
                        d ** x for (_, d, _), x in zip(mats, e)))
            for k, (mat, _, nonempty) in enumerate(mats):
                acc = nxt.setdefault(e[:k] + (e[k] + 1,) + e[k + 1:],
                                     [0] * rep.dim)
                for r, v in _mat_vec(mat, nonempty, vec).items():
                    acc[r] += v
        term = {e: vec for e, vec in nxt.items() if any(vec)}
        den *= m
    return polys


class IntegerPolynomials:
    """Rational polynomials as integer terms over one common denominator
    `den`, each term padded to the top degree `degree`: evaluated at the
    rational point nums / q, f is an integer over den * q**degree."""

    def __init__(self, polys):
        self.den = lcm(*(a.denominator for f in polys for a in f.values()))
        self.degree = max((sum(e) for f in polys for e in f), default=0)
        monomials = list(dict.fromkeys(e for f in polys for e in f))
        index = {e: j for j, e in enumerate(monomials)}
        # each monomial with its padding degree - |e|
        self.monomials = tuple((e, self.degree - sum(e)) for e in monomials)
        self.terms = tuple(tuple((index[e], a.numerator
                                  * (self.den // a.denominator))
                                 for e, a in f.items()) for f in polys)

    def rationals(self):
        """The polynomials as {exponents: Fraction} dicts, as built."""
        return [{self.monomials[j][0]: Fraction(a, self.den) for j, a in f}
                for f in self.terms]

    def evaluate(self, nums, q):
        """(numerators, den * q**degree): the polynomials at the point
        nums / q, as integers over one denominator."""
        qpow = [q ** j for j in range(self.degree + 1)]
        mono = [prod(map(pow, nums, e), start=qpow[pad])
                for e, pad in self.monomials]
        return ([sum(a * mono[j] for j, a in f) for f in self.terms],
                self.den * qpow[-1])


@functools.lru_cache(maxsize=32)
def workspace(datum):
    """The shared Workspace of a root datum.  Keyed by value: equal data,
    however they were built, share one Workspace and its modules."""
    return Workspace(datum)


def delta_varpi(i, g, ws):
    """Highest-weight matrix coefficient of g on the i-th fundamental module."""
    rep = ws.fundamental_rep(i)
    nums, den = rep.apply_word(g.word, rep.unit(0), 1)
    return Fraction(nums[0], den)


def delta_adjoint_type(i, g, ws):
    """<g v, wdot(w0) v> under the Shapovalov form on V_{m_i w_i}, paired
    in integers."""
    rep = ws.power_rep(i)
    v, den = rep.apply_word(g.word, rep.unit(0), 1)
    low, low_den = ws.extremal_vector(rep.module.highest_weight,
                                      range(ws.datum.n))
    gram = rep.module.gram
    return Fraction(sum(v[a] * gram[a][b] * low[b]
                        for a in range(rep.dim) if v[a]
                        for b in range(rep.dim) if low[b]), den * low_den)


def regular_nilpotent_vector(ws):
    """e = sum e_i on the adjoint rep, as integers."""
    rep = ws.adjoint_rep()
    simple = {rep.module.labels.index(('e', idx))
              for idx in ws.chev.simple_index}
    return [int(r in simple) for r in range(rep.dim)]


def ad_conjugate_e(g, ws):
    """Ad_{g^{-1}}(e) as a vector in the labeled adjoint module."""
    rep = ws.adjoint_rep()
    return g.inverse().apply(rep, regular_nilpotent_vector(ws))


@dataclass(frozen=True)
class TNNSample:
    params: tuple
    element: GroupElement


def tnn_sample(w, params=None, rng=None):
    """x_{i_1}(a_1)...x_{i_m}(a_m) along a reduced word, a_k > 0."""
    word = w.word if hasattr(w, 'word') else tuple(w)
    if params is None:
        if rng is None:
            rng = random.Random(0)
        params = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 12))
                       for _ in word)
    params = tuple(Fraction(p) for p in params)
    if any(p <= 0 for p in params):
        raise ValueError("TNN sample parameters must be positive")
    elem = GroupElement(tuple(('x', i, p) for i, p in zip(word, params)))
    return TNNSample(params=params, element=elem)


def tnn_membership_typeA(mat, tol=Fraction(0)):
    """True iff every minor of the upper unitriangular mat is at least
    -tol, one linalg.det per minor.  Raises ValueError unless mat is upper
    unitriangular."""
    n = len(mat)
    if any(mat[r][c] != int(r == c) for r in range(n) for c in range(r + 1)):
        raise ValueError("matrix is not upper unitriangular")
    return all(linalg.det([[mat[r][c] for c in cols] for r in rows]) >= -tol
               for k in range(1, n + 1)
               for rows in itertools.combinations(range(n), k)
               for cols in itertools.combinations(range(n), k))


def centralizer_basis(ws, J):
    """Exact basis of {x in u_J : [x, e_J] = 0} as label/coeff dicts."""
    J = sorted(set(J))
    datum = ws.datum
    chev = ws.chev
    idxs = [chev.root_index[r]
            for r in rootdata.positive_roots_supported_on(datum, J)]
    if not idxs:
        return []
    e_j = {('e', chev.simple_index[j]): ONE for j in J}
    cols = []
    for idx in idxs:
        br = chev.bracket_elements({('e', idx): ONE}, e_j)
        cols.append(br)
    out_labels = sorted({l for col in cols for l in col})
    a = [[cols[c].get(l, ZERO) for c in range(len(idxs))] for l in out_labels]
    if not out_labels:
        kernel = [[ONE if k == c else ZERO for c in range(len(idxs))]
                  for k in range(len(idxs))]
    else:
        kernel = linalg.kernel_basis(a)
    basis = []
    for vec in kernel:
        ints = linalg.primitive(vec)
        sign = 1 if next(v for v in ints if v) > 0 else -1
        elem = {('e', idxs[k]): Fraction(sign * ints[k])
                for k in range(len(idxs)) if ints[k]}
        basis.append(elem)
    basis.sort(key=lambda el: (max(sum(datum.positive_roots[l[1]])
                                   for l in el),
                               sorted(l[1] for l in el)))
    if len(basis) != len(J):
        raise AssertionError("centralizer basis has %d elements, expected "
                             "|J| = %d" % (len(basis), len(J)))
    return basis
