"""Pluecker relations and exact graded components of their ideal.

Polynomials live in the multigraded coordinate ring with one variable
per Pluecker index of each size in d. A monomial is a sorted tuple of
(variable, exponent) pairs; coefficients are exact rationals. The same
type carries the polynomials on the other side of the substitution psi,
whose variables are keys such as ("z", i, j) and ("col", k). All
component computations fix the monomial order (grading ascending, then
lexicographic on the exponent lists) so outputs are deterministic.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import lcm

from .degrees import all_indices, grading_vector, index_label
from .linalg import Echelon, canonical_rows
from .weights import face_contains, face_signature, zero_weight_system


def _sort_sign(seq):
    """The sorted tuple of seq and the sign of the sorting permutation;
    (None, 0) on a repeated entry."""
    out = list(seq)
    sign = 1
    for i in range(1, len(out)):  # insertion sort, one sign flip per swap
        x = out[i]
        j = i
        while j and out[j - 1] > x:
            out[j] = out[j - 1]
            j -= 1
            sign = -sign
        if j and out[j - 1] == x:
            return None, 0
        out[j] = x
    return tuple(out), sign


# -- monomials ---------------------------------------------------------------
# A monomial is a tuple of (variable, exponent) pairs sorted by variable. The
# helpers below other than mono_mul read Pluecker variables: index tuples.


def mono_mul(m1, m2):
    exps = {}
    for elems, e in m1 + m2:
        exps[elems] = exps.get(elems, 0) + e
    return tuple(sorted(exps.items()))


def mono_multidegree(m, d):
    counts = {k: 0 for k in d}
    for elems, e in m:
        counts[len(elems)] += e
    return tuple(counts[k] for k in d)


def mono_grade(m, g):
    return sum(e * g[elems] for elems, e in m)


def mono_str(m):
    parts = []
    for elems, e in m:
        name = "X_{%s}" % index_label(elems)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class GradedPolynomial:
    """Sparse polynomial {monomial: Fraction} in any mutually sortable
    variables; the package's one implementation of polynomial arithmetic."""

    def __init__(self, terms=None):
        self.terms = {}
        for m, c in (terms or {}).items():
            if type(c) is not Fraction:  # Fractions are immutable: keep them
                c = Fraction(c)
            if c:
                self.terms[m] = c

    @classmethod
    def variable(cls, I):
        return cls({((I, 1),): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GradedPolynomial) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            new = out.get(m, Fraction(0)) + c
            if new:
                out[m] = new
            else:
                out.pop(m, None)
        return GradedPolynomial(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return GradedPolynomial({m: c * v for m, v in self.terms.items()})

    def mul_monomial(self, m, c=Fraction(1)):
        return GradedPolynomial({mono_mul(t, m): c * v for t, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for m, c in other.terms.items():
            for t, v in self.terms.items():
                prod = mono_mul(t, m)
                out[prod] = out.get(prod, 0) + v * c
        return GradedPolynomial(out)

    def multidegree(self, d):
        degs = {mono_multidegree(m, d) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not multihomogeneous")
        return degs.pop()

    def canonical(self):
        """Scale so the lexicographically least monomial has coefficient 1."""
        if not self.terms:
            return self
        lead = min(self.terms)
        return self.scale(Fraction(1) / self.terms[lead])

    def key(self):
        return tuple(sorted(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            parts.append(f"({c})*{mono_str(m)}")
        return " + ".join(parts)

    def to_json(self):
        return [
            {"coeff": str(c), "monomial": [[list(e), x] for e, x in m]}
            for m, c in sorted(self.terms.items())
        ]


def _exchange_terms(i_tuple, j_tuple, k, signs):
    """Single Pluecker exchange as {monomial: int}: X_i X_j minus the
    products with the first k entries of j swapped into i in all possible
    ways, each index sorted with its sign. signs memoizes _sort_sign."""
    rel = {}
    terms = [(i_tuple, j_tuple, 1)]
    for positions in combinations(range(len(i_tuple)), k):
        i_new = list(i_tuple)
        for m, pos in enumerate(positions):
            i_new[pos] = j_tuple[m]
        r_tuple = tuple(i_tuple[pos] for pos in positions)
        terms.append((tuple(i_new), r_tuple + j_tuple[k:], -1))
    for seq1, seq2, c in terms:
        e1, s1 = signs.get(seq1) or signs.setdefault(seq1, _sort_sign(seq1))
        e2, s2 = signs.get(seq2) or signs.setdefault(seq2, _sort_sign(seq2))
        if not (s1 and s2):
            continue
        mono = ((e1, 2),) if e1 == e2 else ((min(e1, e2), 1), (max(e1, e2), 1))
        rel[mono] = rel.get(mono, 0) + c * s1 * s2
        if not rel[mono]:
            del rel[mono]
    return rel


def relation_pairs(d, mu=None):
    """The size pairs p >= q of d that Pluecker relations come from; with
    mu, only those whose relations, of multidegree e_p + e_q, fit into mu."""
    deg = dict(zip(d, (2,) * len(d) if mu is None else mu))  # 2 of each fits every pair
    return [(p, q) for p in d for q in d if p >= q and deg[q] >= 1 and deg[p] >= 1 + (p == q)]


class _Relations(tuple):
    """The relations plucker_relations returns, marked with the ideal
    (n, d) they generate; None when they are only those that fit a mu."""

    ideal = None


@lru_cache(maxsize=32)
def plucker_relations(n, d, mu=None):
    """Generating set of the multihomogeneous Pluecker ideal; with mu, only
    its relations that fit into mu, all that reach that component.

    Runs over the size pairs of relation_pairs, all exchange lengths k and
    all placements of the exchanged block, except those that give zero;
    duplicates up to scalar are dropped and the result is
    deterministically ordered. Relations are built over the integers and
    scaled to lead coefficient 1; only the kept ones become Fraction
    polynomials. The result is cached, so it is a tuple: no caller can
    change it for the next one. It is marked with the ideal it generates,
    which _ideal_rows reads instead of building the relations to compare.
    """
    kept = {}
    signs = {}  # few distinct sequences recur across the exchanges
    for p, q in relation_pairs(tuple(d), mu):
        for i_set in combinations(range(1, n + 1), p):
            for j_set in combinations(range(1, n + 1), q):
                # Swapping all of i (k = p = q) or a block already in
                # i only puts the factors back: X_i X_j - X_i X_j = 0.
                for k in range(1, min(q, p - 1) + 1):
                    for block in combinations(j_set, k):
                        if all(v in i_set for v in block):
                            continue
                        rest = tuple(v for v in j_set if v not in block)
                        rel = _exchange_terms(i_set, block + rest, k, signs)
                        if not rel:
                            continue
                        lead = rel[min(rel)]
                        canon = {
                            m: Fraction(c, lead) if c % lead else c // lead
                            for m, c in rel.items()
                        }
                        kept.setdefault(tuple(sorted(canon.items())), canon)
    out = _Relations(GradedPolynomial(kept[key]) for key in sorted(kept))
    if mu is None:
        out.ideal = (n, tuple(d))
    return out


def initial_part(f, g):
    """Sum of the terms of minimal grading (min convention)."""
    if not f:
        raise ValueError("zero polynomial has no initial part")
    lowest = min(mono_grade(m, g) for m in f.terms)
    return GradedPolynomial(
        {m: c for m, c in f.terms.items() if mono_grade(m, g) == lowest}
    )


# -- graded components -------------------------------------------------------


@lru_cache(maxsize=1024)
def component_monomials(n, d, mu):
    """Ordered monomial basis of the coordinate-ring component of
    multidegree mu (aligned with d)."""
    factor_lists = []
    for k, count in zip(d, mu):
        variables = all_indices(n, (k,))
        factor_lists.append(
            [tuple(c) for c in combinations_with_replacement(variables, count)]
        )
    monos = [()]
    for factors in factor_lists:
        monos = [
            mono_mul(m, tuple((e, 1) for e in f)) for m in monos for f in factors
        ]
    return sorted(set(monos))


def _spanning_rows(gens, n, d, mu):
    """Spanning rows of the ideal component: every generator, scaled to
    integer coefficients, times every monomial of complementary
    multidegree, as sparse integer vectors over the monomial basis."""
    basis = component_monomials(n, d, mu)
    col = {m: idx for idx, m in enumerate(basis)}
    rows = []
    for g in gens:
        nu = g.multidegree(d)
        rest = tuple(a - b for a, b in zip(mu, nu))
        if any(x < 0 for x in rest):
            continue
        den = lcm(*[c.denominator for c in g.terms.values()])
        terms = [(t, c.numerator * (den // c.denominator)) for t, c in g.terms.items()]
        for m in component_monomials(n, d, rest):
            rows.append({col[mono_mul(t, m)]: c for t, c in terms})
    return basis, rows


def _echelon(rows):
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return ech


@lru_cache(maxsize=256)
def _canonical_rows_cache(n, d, mu):
    """Monomial basis of the Pluecker ideal's component of multidegree mu
    and an echelon basis of the component in column order, reduced once
    for every grading: independent primitive integer rows, by pivot."""
    basis, rows = _spanning_rows(plucker_relations(n, d), n, d, mu)
    ech = _echelon(rows)
    return basis, tuple(ech.rows[pivot] for pivot in sorted(ech.rows))


def _ideal_rows(gens, n, d, mu):
    """Monomial basis and integer rows spanning the ideal component; the
    Pluecker ideal, recognized by the mark plucker_relations puts on its
    relations, has an echelon basis cached per mu."""
    if getattr(gens, "ideal", None) == (n, d):
        return _canonical_rows_cache(n, d, mu)
    return _spanning_rows(gens, n, d, mu)


def _column_grades(monomials, g):
    """Grade of every monomial under the degree table g."""
    return [sum([g[elems] * e for elems, e in m]) for m in monomials]


class ComponentBasis:
    """Row-reduced basis of an ideal component over a fixed monomial list."""

    def __init__(self, mu, monomials, rows):
        self.mu = mu
        self.monomials = monomials  # ordered basis of the ring component
        self.rows = rows  # RREF rows, sparse over column positions

    @property
    def rank(self):
        return len(self.rows)

    def row_polynomials(self):
        return [
            GradedPolynomial({self.monomials[c]: v for c, v in row.items()})
            for row in self.rows
        ]

    def span_key(self):
        return canonical_rows(self.rows)


def component_basis(gens, n, d, mu):
    """Row-reduced basis of the ideal component of multidegree mu."""
    basis, rows = _ideal_rows(gens, n, d, mu)
    return ComponentBasis(mu, basis, _echelon(rows).reduced_rows())


def _initial_rows(rows, grades):
    """RREF rows spanning the initial parts of the span V of rows, for the
    column grades.

    Columns are relabeled by their position in (grade, column) order, so
    the pivot of each echelon row of V is its least (grade, column) entry
    and the row's initial part, its entries of least grade, contains that
    pivot. The initial parts lie in in(V). Each lies inside one grade
    class, and distinct grade classes have disjoint column supports;
    within a class the (grade, column) order is the column order. So the
    pivot's column is also the least column of the initial part, and the
    dim V initial parts, with distinct pivots, already form an echelon
    basis in column order: they are independent, and dim in(V) = dim V,
    so they span in(V). Their back-substitution is the RREF, which is
    unique, so no second reduction is needed.
    """
    order = sorted(range(len(grades)), key=grades.__getitem__)  # stable: ties by column
    pos = {c: p for p, c in enumerate(order)}
    ech = _echelon({pos[c]: v for c, v in row.items()} for row in rows)
    out = Echelon()
    for pivot, row in ech.rows.items():
        lowest = grades[order[pivot]]
        out.rows[order[pivot]] = {
            order[p]: v for p, v in row.items() if grades[order[p]] == lowest
        }
    return out.reduced_rows()


def initial_component(gens, n, d, mu, g):
    """Basis of the initial-ideal component for grading g."""
    basis, rows = _ideal_rows(gens, n, d, mu)
    return ComponentBasis(mu, basis, _initial_rows(rows, _column_grades(basis, g)))


def contains_monomial(cb):
    """A monomial in the row span, if any; in RREF that is a unit row."""
    for row in cb.rows:
        if len(row) == 1:
            (c,) = row
            return cb.monomials[c]
    return None


def is_binomially_spanned(cb):
    return all(len(row) <= 2 for row in cb.rows)


def quadratic_generation_check(A, n, d, mu):
    """Compare the component of the ideal generated by the initial parts
    of the Pluecker relations with the full initial-ideal component."""
    d = tuple(d)
    mu = tuple(mu)
    g = grading_vector(A, d)
    gens = plucker_relations(n, d)
    quad = []
    seen = set()
    for rel in gens:
        init = initial_part(rel, g).canonical()
        if init.key() not in seen:
            seen.add(init.key())
            quad.append(init)
    full = initial_component(gens, n, d, mu, g)
    return component_basis(quad, n, d, mu).rank == full.rank


def face_degeneration_check(A, B, n, d, mu):
    """Check that the grading of B degenerates the initial ideal of A into
    the initial ideal of B on the given component.

    Requires the minimal face containing B to contain the minimal face
    containing A.
    """
    d = tuple(d)
    mu = tuple(mu)
    if not face_contains(face_signature(B), face_signature(A)):
        raise ValueError("face precondition fails: B's face must contain A's face")
    gens = plucker_relations(n, d)
    gA = grading_vector(A, d)
    gB = grading_vector(B, d)
    ideal_A = initial_component(gens, n, d, mu, gA)
    grades_B = _column_grades(ideal_A.monomials, gB)
    lhs = canonical_rows(_initial_rows(ideal_A.rows, grades_B))
    rhs = initial_component(gens, n, d, mu, gB).span_key()
    return lhs == rhs


def classical_component(n, d, mu):
    """Component basis with the zero grading (classical recovery)."""
    d = tuple(d)
    g = grading_vector(zero_weight_system(n), d)
    return initial_component(plucker_relations(n, d), n, d, tuple(mu), g)


def multidegrees_up_to(d, bound):
    """All nonzero multidegrees over d of total degree <= bound."""
    out = []

    def build(pos, left, acc):
        if pos == len(d):
            if any(acc):
                out.append(tuple(acc))
            return
        for v in range(left + 1):
            build(pos + 1, left - v, acc + [v])

    build(0, bound, [])
    out.sort(key=lambda mu: (sum(mu), mu))
    return out
