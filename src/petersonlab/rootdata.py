"""Root-datum combinatorics: roots, coroots, weights, Weyl words.

Conventions
-----------
Indices are 0-based internally; CLI/JSON surfaces use 1-based node names.

A Cartan matrix is given in catalog convention: ``cartan[i][j]`` is the
pairing of the j-th simple root against the i-th simple coroot, so row i
lists the values of alpha_i^vee on the simple roots.  Internally we keep
``pairing[i][j] = <alpha_i, alpha_j^vee>`` (the transpose), and:

* a root written in simple-root coordinates ``k`` pairs with alpha_j^vee
  as ``sum_i k[i] * pairing[i][j]``;
* alpha_i in fundamental-weight coordinates is row i of ``pairing``;
* alpha_j^vee in fundamental-coweight coordinates is column j of
  ``pairing``;
* weights are stored in fundamental-weight coordinates, coweights in
  fundamental-coweight coordinates, so <w_i, alpha_j^vee> = delta_ij is
  structural.

Node ordering for the built-in catalog is Bourbaki.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import functools

from . import linalg

HEIGHT_BOUND = 100

CATALOG = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "G2": [[2, -3], [-1, 2]],
    "A1xA1": [[2, 0], [0, 2]],
    "A2xA1": [[2, -1, 0], [-1, 2, 0], [0, 0, 2]],
}

ORDERING = "bourbaki"


@dataclass(frozen=True)
class CartanMatrix:
    """Integer Cartan matrix in catalog convention (see module docstring)."""

    entries: tuple

    @property
    def n(self):
        return len(self.entries)

    def validate(self):
        n = self.n
        for i in range(n):
            if len(self.entries[i]) != n:
                raise ValueError("Cartan matrix must be square")
            if self.entries[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(n):
                if i != j:
                    if self.entries[i][j] > 0:
                        raise ValueError("off-diagonal entries must be <= 0")
                    if (self.entries[i][j] == 0) != (self.entries[j][i] == 0):
                        raise ValueError("zero pattern must be symmetric")
        if linalg.det(self.entries) == 0:
            raise ValueError("Cartan matrix must be nonsingular (semisimple)")


def cartan_from_entries(rows):
    cm = CartanMatrix(tuple(tuple(int(v) for v in row) for row in rows))
    cm.validate()
    return cm


@dataclass(frozen=True)
class RootDatum:
    cartan: CartanMatrix
    pairing: tuple            # pairing[i][j] = <alpha_i, alpha_j^vee>
    positive_roots: tuple     # simple-root coordinates, sorted by height

    @property
    def n(self):
        return self.cartan.n

    # -- pairings -----------------------------------------------------
    def root_pair_coroot(self, root, j):
        """<alpha, alpha_j^vee> for alpha in simple-root coordinates."""
        return sum(root[i] * self.pairing[i][j] for i in range(self.n))

    def root_to_weight_coords(self, root):
        """Convert simple-root coordinates to fundamental-weight coords."""
        return tuple(sum(root[i] * self.pairing[i][j] for i in range(self.n))
                     for j in range(self.n))

    # -- inverse pairing and derived data -----------------------------
    # Computed once per object; __eq__ and __hash__ read only the fields.
    @functools.cached_property
    def pairing_inverse(self):
        """Rows give fundamental weights in simple-root coordinates."""
        inv = linalg.inverse(self.pairing)
        return tuple(tuple(row) for row in inv)

    def weight_to_root_coords(self, weight):
        """Fundamental-weight coords -> simple-root coords (rational)."""
        pinv = self.pairing_inverse
        return tuple(sum(Fraction(weight[i]) * pinv[i][j] for i in range(self.n))
                     for j in range(self.n))

    @functools.cached_property
    def symmetrizer(self):
        """Coprime positive integers d with pairing[i][j]*d[j] symmetric in
        i, j; d[i] is proportional to the squared length of alpha_i."""
        n = self.n
        d = [None] * n
        for block in dynkin_components(self):
            d[block[0]] = Fraction(1)
            queue = [block[0]]
            while queue:
                i = queue.pop()
                for j in block:
                    if d[j] is None and self.pairing[i][j] != 0:
                        d[j] = d[i] * self.pairing[j][i] / self.pairing[i][j]
                        queue.append(j)
        return linalg.primitive(d)

    def coroot_of(self, root):
        """alpha^vee in simple-coroot coordinates for a positive root alpha."""
        d = self.symmetrizer
        norm2 = sum(root[i] * root[j] * self.pairing[i][j] * d[j]
                    for i in range(self.n) for j in range(self.n))
        return tuple(Fraction(2 * root[j] * d[j], 1) / norm2 for j in range(self.n))


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: reduced word plus its integer root-lattice
    matrix, so act_on_root takes and returns integer coordinates.

    Elements are compared through the action matrix, never by word.
    """

    word: tuple = field(compare=False)
    matrix: tuple   # action on simple-root coordinates, columns = images

    def act_on_root(self, root):
        return tuple(sum(row[j] * r for j, r in enumerate(root) if r)
                     for row in self.matrix)


def weyl_from_word(datum, word):
    """The Weyl element s_{i_1} ... s_{i_k} of the word (i_1, ..., i_k),
    the element that grouprep.wdot(word) represents, its matrix built in
    integers: each letter i, from the last to the first, reflects every
    column (the image of a simple root) by s_i(a) = a - <a, a_i^vee> a_i."""
    cols = [[int(r == c) for r in range(datum.n)] for c in range(datum.n)]
    for i in reversed(word):
        for col in cols:
            col[i] -= datum.root_pair_coroot(col, i)
    return WeylElement(tuple(word), tuple(zip(*cols)))


def build_root_datum(cartan):
    """Enumerate positive roots by reflection closure, sorted by height."""
    cartan.validate()
    n = cartan.n
    pairing = tuple(tuple(cartan.entries[j][i] for j in range(n)) for i in range(n))
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            for j in range(n):
                c = sum(root[i] * pairing[i][j] for i in range(n))
                img = list(root)
                img[j] -= c
                img = tuple(img)
                if all(v >= 0 for v in img) and img not in seen:
                    if sum(img) > HEIGHT_BOUND:
                        raise ValueError(
                            "root closure exceeded height bound %d; "
                            "matrix is not of finite type" % HEIGHT_BOUND)
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    roots = sorted(seen, key=lambda r: (sum(r), r))
    return RootDatum(
        cartan=cartan,
        pairing=pairing,
        positive_roots=tuple(roots),
    )


def datum_from_name(name):
    if name not in CATALOG:
        raise ValueError("unknown type %r (catalog: %s)"
                         % (name, ", ".join(CATALOG)))
    return build_root_datum(cartan_from_entries(CATALOG[name]))


def longest_element(datum, J):
    """Longest element of the parabolic subgroup generated by J."""
    J = sorted(set(J))
    mu = [int(i in J) for i in range(datum.n)]
    word = []
    while True:
        i = next((i for i in J if mu[i] > 0), None)
        if i is None:
            break
        word.append(i)
        c = mu[i]
        row = datum.pairing[i]
        mu = [mu[j] - c * row[j] for j in range(datum.n)]
    word.reverse()
    return weyl_from_word(datum, word)


def dynkin_components(datum, nodes=None):
    """Connected components of the Dynkin graph, or of its subgraph on
    nodes, as sorted index lists in order of their least node."""
    nodes = sorted(set(range(datum.n) if nodes is None else nodes))
    seen = set()
    blocks = []
    for start in nodes:
        if start in seen:
            continue
        block = []
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            block.append(i)
            for j in nodes:
                if j not in seen and datum.pairing[i][j] != 0:
                    seen.add(j)
                    stack.append(j)
        blocks.append(sorted(block))
    return blocks


def fundamental_exponents(datum):
    """m_i = least positive integer with m_i * w_i in the root lattice."""
    return tuple(linalg.integer_row(row)[1] for row in datum.pairing_inverse)


def subsets(items):
    """All subsets of items as tuples, in binary-counting order: the k-th
    holds the items at the set bits of k."""
    out = [()]
    for x in items:
        out += [s + (x,) for s in out]
    return out


def positive_roots_supported_on(datum, J):
    J = set(J)
    return [r for r in datum.positive_roots
            if all(r[i] == 0 for i in range(datum.n) if i not in J)]

