"""Pluecker relations and exact graded components of their ideal.

Polynomials live in the multigraded coordinate ring with one variable
per Pluecker index of each size in d; coefficients are exact rationals.
A GradedPolynomial's monomial is a sorted tuple of (index tuple, exponent)
pairs, one per Pluecker variable it contains. A component's column is the
sorted tuple of its variables' ids, each repeated by its exponent, the
id of X_I being the position of I in degrees.all_indices(n, d). Columns
are ordered as their pair monomials are, so outputs are deterministic.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, repeat
from math import comb, lcm
from operator import add, eq, lt

from .degrees import all_indices, grading_vector, index_label
from .linalg import Echelon, _eliminate, _integral, canonical_rows, pivot_one
from .weights import face_contains, face_signature, zero_weight_system

_CERTIFICATES = 64  # kept for one cached component at most (initial_component)


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
# GradedPolynomial's monomials: (index tuple, exponent) pairs sorted by index.


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
    """Sparse polynomial {monomial: Fraction} in the Pluecker variables:
    relations, their initial parts and the rows of components."""

    def __init__(self, terms=None):
        self.terms = {}
        for m, c in (terms or {}).items():
            if type(c) is not Fraction:  # Fractions are immutable: keep them
                c = Fraction(c)
            if c:
                self.terms[m] = c

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GradedPolynomial) and self.terms == other.terms

    def scale(self, c):
        c = Fraction(c)
        return GradedPolynomial({m: c * v for m, v in self.terms.items()})

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


def relation_pairs(d, mu=None):
    """The size pairs p >= q of d that Pluecker relations come from, p >= 2
    since an exchange moves a block of k <= p - 1 entries; with mu, only
    those whose relations, of multidegree e_p + e_q, fit into mu."""
    deg = dict(zip(d, (2,) * len(d) if mu is None else mu))  # 2 of each fits every pair
    return [(p, q) for p in d for q in d
            if p >= q and p >= 2 and deg[q] >= 1 and deg[p] >= 1 + (p == q)]


def relation_exchanges(n, d, mu=None):
    """The number of exchanges plucker_relations(n, d, mu) examines,
    counted without listing them: for each size pair p >= q, index i of
    size p and block size k, the blocks with t < k entries in i times the
    rests of q - k entries off both."""
    return sum(
        comb(n, p) * comb(p, t) * comb(n - p, k - t) * comb(n - p - k + t, q - k)
        for p, q in relation_pairs(d, mu)
        for k in range(1, min(q, p - 1) + 1)
        for t in range(max(0, k - n + p), k)  # no more than n - p entries off i
    )


class _Relations(tuple):
    """The relations plucker_relations returns, marked with the ideal
    (n, d) they generate (None when they are only those that fit a mu)
    and with their multidegrees over the sizes d, taken once."""

    ideal = None
    d = None
    multidegrees = ()


def _first_factors(i_set, block, placements, signs):
    """The first factors of the exchanges of i with block + rest, the same
    for every rest: (sorted index, sign, entries removed) for each
    placement of the block in i that repeats no entry. X_i itself comes
    first, with the block as the entries removed and sign -1 against the
    minus of the swaps. signs memoizes _sort_sign.

    The entries of i are distinct and so are those of the block, so a
    placement repeats an entry exactly when it leaves a block entry that
    is already in i at its own position. Those placements are skipped
    before they are built, and every placement built gives a first factor.
    """
    firsts = [(i_set, -1, block)]
    held = {pos for pos, v in enumerate(i_set) if v in block}
    for positions in placements:
        if not held.issubset(positions):
            continue
        i_new = list(i_set)
        for m, pos in enumerate(positions):
            i_new[pos] = block[m]
        i_new = tuple(i_new)
        e1, s1 = signs.get(i_new) or signs.setdefault(i_new, _sort_sign(i_new))
        firsts.append((e1, s1, tuple(i_set[pos] for pos in positions)))
    return firsts


@lru_cache(maxsize=32)
def plucker_relations(n, d, mu=None):
    """Generating set of the multihomogeneous Pluecker ideal; with mu, only
    its relations that fit into mu, all that reach that component.

    For each size pair p >= q of relation_pairs, each index i of size p
    and each block of k <= min(q, p - 1) entries not all in i (else the
    exchange only puts the factors back), the first factors are built
    once; each rest of q - k entries off both the block and i then gives
    the exchange of i with j = block + rest, X_i X_j minus the products
    with the block swapped into i in all possible ways (in order, into
    positions P of i), each index sorted with its sign.

    A rest entry r = i_rho in i adds nothing. Every term that places into
    position rho repeats r and vanishes. If k <= p - 2, the exchange is
    (-1)**(k+gamma-beta) times the one with r moved from the rest into the
    block (gamma the rank of r in the rest, beta in the new block), the
    terms matching one to one with P' = P + {rho}: the factors agree as
    sets, moving r to its place in the first factor costs (-1)**(alpha-beta)
    and in the second (-1)**(k+gamma-alpha), alpha the rank of rho in P'.
    The swapped-in terms with rho not in P' repeat r. If k = p - 1, then
    p = q and the rest is r alone. The one swapped-in term left, P every
    position but rho, is X_i X_j itself: its first factor sorts with
    (-1)**(p-1-rho) times the sign of block + r, and i without r followed
    by r with (-1)**(p-1-rho), so the exchange is zero. Moving one entry
    at a time, every exchange whose rest meets i is zero or +-1 times one
    that is examined, so the kept relations do not change.

    Exchanges that come out zero are skipped, duplicates up to scalar are
    dropped (the first one built is kept) and the result is
    deterministically ordered. Relations are built over the integers and
    scaled to lead coefficient 1; only the kept ones become Fraction
    polynomials. The result is cached, so it is a tuple: no caller can
    change it for the next one. It is marked with the ideal it generates,
    which initial_component reads instead of building the relations to
    compare, and with each relation's multidegree, which _spanning_rows
    reads: the terms are products X_e1 X_e2 of sizes p and q, so it is
    e_p + e_q.
    """
    d = tuple(d)
    kept = {}  # relation key -> (coefficients, multidegree)
    signs = {}  # few distinct sequences recur across the exchanges
    ground = range(1, n + 1)
    for p, q in relation_pairs(d, mu):
        nu = tuple((k == p) + (k == q) for k in d)
        lengths = range(1, min(q, p - 1) + 1)
        placements = {k: list(combinations(range(p), k)) for k in lengths}
        for i_set in combinations(ground, p):
            for k in lengths:
                for block in combinations(ground, k):
                    if all(v in i_set for v in block):
                        continue
                    off = [v for v in ground if v not in block and v not in i_set]
                    if len(off) < q - k:
                        continue
                    firsts = _first_factors(i_set, block, placements[k], signs)
                    for rest in combinations(off, q - k):
                        rel = {}
                        for e1, s1, removed in firsts:
                            seq = removed + rest
                            e2, s2 = signs.get(seq) or signs.setdefault(seq, _sort_sign(seq))
                            if not s2:
                                continue
                            mono = ((e1, 2),) if e1 == e2 else (
                                ((e1, 1), (e2, 1)) if e1 < e2 else ((e2, 1), (e1, 1)))
                            rel[mono] = rel.get(mono, 0) - s1 * s2
                            if not rel[mono]:
                                del rel[mono]
                        if not rel:
                            continue
                        lead = rel[min(rel)]
                        canon = {
                            m: Fraction(c, lead) if c % lead else c // lead
                            for m, c in rel.items()
                        }
                        kept.setdefault(tuple(sorted(canon.items())), (canon, nu))
    keys = sorted(kept)
    out = _Relations(GradedPolynomial(kept[key][0]) for key in keys)
    out.d = d
    out.multidegrees = tuple(kept[key][1] for key in keys)
    if mu is None:
        out.ideal = (n, d)
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


def pair_monomials(n, d, monomials):
    """The (index tuple, exponent) form of each id monomial over (n, d)."""
    indices = all_indices(n, d)
    return [tuple(sorted((indices[i], m.count(i)) for i in set(m))) for m in monomials]


@lru_cache(maxsize=1024)
def component_monomials(n, d, mu):
    """Ordered monomial basis of the coordinate-ring component of
    multidegree mu (aligned with d): id tuples in the order of their pair
    monomials. The ids of one size form a block after those of the sizes
    before it, so a product over the sizes is a concatenation."""
    monos = [()]
    start = 0
    for k, count in zip(d, mu):
        ids = range(start, start + comb(n, k))
        block = list(combinations_with_replacement(ids, count))
        monos = [m + f for m in monos for f in block]
        start = ids.stop
    return [m for _, m in sorted(zip(pair_monomials(n, d, monos), monos))]


def _spanning_rows(gens, n, d, mu):
    """Spanning rows of the ideal component: every generator, scaled to
    integer coefficients, times every monomial of complementary
    multidegree, as sparse integer vectors over the monomial basis.
    Relations from plucker_relations carry their multidegrees over d."""
    basis = component_monomials(n, d, mu)
    col = {m: idx for idx, m in enumerate(basis)}
    ids = {I: i for i, I in enumerate(all_indices(n, d))}
    if getattr(gens, "d", None) == d:
        nus = gens.multidegrees
    else:
        nus = [g.multidegree(d) for g in gens]
    rows = []
    for g, nu in zip(gens, nus):
        rest = tuple(a - b for a, b in zip(mu, nu))
        if any(x < 0 for x in rest):
            continue
        den = lcm(*[c.denominator for c in g.terms.values()])
        terms = [
            (tuple(sorted(ids[I] for I, e in t for _ in range(e))),
             c.numerator * (den // c.denominator))
            for t, c in g.terms.items()
        ]
        for m in component_monomials(n, d, rest):
            rows.append({col[tuple(sorted(t + m))]: c for t, c in terms})
    return basis, rows


class _ComponentRows(tuple):
    """The integer RREF rows of a Pluecker component, as
    _canonical_rows_cache holds them, with positions, its monomials
    transposed for _column_grades, and certificates (initial_component),
    the first the rows' own, serving the component's own basis."""

    def __new__(cls, rows, basis, own):
        self = super().__new__(cls, rows)
        self.positions = tuple(zip(*basis))
        inside = tuple(chain.from_iterable(self))
        leads = tuple(chain.from_iterable(repeat(min(row), len(row)) for row in self))
        self.certificates = [(inside, leads, (), (), own)]
        return self


@lru_cache(maxsize=256)
def _canonical_rows_cache(n, d, mu):
    """Monomial basis of the Pluecker ideal's component of multidegree mu
    and its integer RREF in column order, reduced once for every grading:
    primitive rows with a positive pivot, zero on every other row's pivot
    column, sorted by pivot (Echelon.rref), as a _ComponentRows."""
    basis, rows = _spanning_rows(plucker_relations(n, d), n, d, mu)
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    rows = ech.rref()
    return basis, _ComponentRows(rows, basis, ComponentBasis(n, d, mu, basis, pivot_one(rows)))


def _column_grades(monomials, g, n, d, positions=None):
    """Grade of every id monomial over (n, d) under the degree table g, summed
    one position at a time (positions: the monomials transposed, if given)."""
    grade = [g[I] for I in all_indices(n, d)].__getitem__
    grades = [0] * len(monomials)
    for ids in zip(*monomials) if positions is None else positions:
        grades = list(map(add, grades, map(grade, ids)))
    return grades


class ComponentBasis:
    """Row-reduced basis of an ideal component over a fixed monomial list."""

    def __init__(self, n, d, mu, monomials, rows):
        self.n = n
        self.d = d
        self.mu = mu
        self.monomials = monomials  # ordered basis of the ring component, id tuples
        self.rows = rows  # RREF rows, sparse over column positions

    @property
    def rank(self):
        return len(self.rows)

    def row_polynomials(self):
        pairs = pair_monomials(self.n, self.d, self.monomials)
        return [GradedPolynomial({pairs[c]: v for c, v in row.items()}) for row in self.rows]

    def span_key(self):
        """canonical_rows of the rows, taken afresh: a shared basis keeps no copy."""
        return canonical_rows(self.rows)


def component_basis(gens, n, d, mu):
    """Row-reduced basis of the ideal component of multidegree mu: its
    initial component for the zero grading. Under a constant grading every
    row is its own initial part, and _initial_rows files each row by its
    least column, so it returns the RREF of the span: on the marked
    relations, the component's own basis."""
    return initial_component(gens, n, d, mu, dict.fromkeys(all_indices(n, d), 0))


def _initial_rows(rows, grades, filed=None):
    """RREF rows spanning the initial parts of the span V of rows, for the
    column grades. filed, if given, is an empty dict that receives the
    reduced basis of V the initial parts come from, {leading column: row}.

    The leading term of a row is its least (grade, column) entry: least
    grade first, then least column. Each row is filed under the column of
    its leading term; a row whose leading column is taken is reduced
    against the filed row, which clears that column and leaves only
    greater terms, until it is filed or vanishes. So the filed rows have
    distinct leading terms and form an echelon basis of V in (grade,
    column) order. A cached RREF row rarely collides and is filed as is.
    Back-substitution, greatest leading term first, clears each filed row
    on the other leading columns, all past its own and reduced already.

    The initial part of a filed row, its entries of least grade, contains
    the leading term, and lies in in(V). It lies inside one grade class,
    and distinct grade classes have disjoint column supports; within a
    class the (grade, column) order is the column order. So the leading
    column is also the least column of the initial part, and the dim V
    initial parts, with distinct pivots, form an echelon basis in column
    order: they are independent, and dim in(V) = dim V, so they span
    in(V). Zero on each other's pivots, scaled to pivot 1 they are the
    RREF, which is unique.
    """
    grade = grades.__getitem__
    filed = {} if filed is None else filed
    for vec in rows:
        row = _integral(vec)  # Fraction rows, as face_degeneration_check passes
        while row:
            _, lead = min(zip(map(grade, row), row))
            other = filed.get(lead)
            if other is None:
                filed[lead] = row
                break
            if row is vec:
                row = dict(vec)
            _eliminate(row, other, lead)
    for lead in sorted(filed, key=lambda c: (grade(c), c), reverse=True):
        cols = filed[lead].keys() & filed.keys()
        cols.discard(lead)
        if cols:
            row = filed[lead] = dict(filed[lead])
            for col in cols:
                _eliminate(row, filed[col], col)
    return pivot_one([{c: v for c, v in filed[lead].items() if grade(c) == grade(lead)}
                      for lead in sorted(filed)])


def initial_component(gens, n, d, mu, g):
    """Basis of the initial-ideal component for grading g.

    On the marked relations the rows span the cached component V, which
    keeps a certificate for each initial component computed from it. For
    a grading g0, _initial_rows files a reduced basis E of V: each e in E
    has a lead l_e, a column zero in every other e, and an initial part
    in_g0(e) of least g0-grade. The certificate pairs each column of each
    e with l_e, inside if in in_g0(e), else outside, and holds the basis
    of in_g0(V). g satisfies it if every inside column has the g-grade of
    its lead and every outside one a greater g-grade. Then in_g(e) =
    in_g0(e) for every e; those span in_g0(V) (_initial_rows), which so
    lies in in_g(V), of the same dimension: they are equal, and the RREF
    is unique. Conversely, if in_g(V) = in_g0(V), in_g(e), in it and zero
    on every other lead, is a nonzero multiple of in_g0(e) and a part of
    e: it is in_g0(e). The first certificate is the RREF's own, each row
    whole: it holds where every row is homogeneous, and serves V's basis.
    At most _CERTIFICATES are kept a component: each holds its basis until
    the cache is cleared, and a grading with a new initial component tests
    them all. Served bases are shared, so read-only. Any other generators
    are spanned afresh.
    """
    if getattr(gens, "ideal", None) != (n, d):
        basis, rows = _spanning_rows(gens, n, d, mu)
        return ComponentBasis(n, d, mu, basis, _initial_rows(rows, _column_grades(basis, g, n, d)))
    basis, rows = _canonical_rows_cache(n, d, mu)
    grades = _column_grades(basis, g, n, d, rows.positions)
    grade = grades.__getitem__
    for inside, inside_leads, outside, outside_leads, served in rows.certificates:
        if (all(map(eq, map(grade, inside), map(grade, inside_leads)))
                and all(map(lt, map(grade, outside_leads), map(grade, outside)))):
            return served
    filed = {}
    cb = ComponentBasis(n, d, mu, basis, _initial_rows(rows, grades, filed))
    if len(rows.certificates) < _CERTIFICATES:
        sides = ([], [], [], [])  # inside, their leads, outside, their leads
        for lead, row in filed.items():
            for c in row:
                side = 2 * (grade(c) > grade(lead))
                sides[side].append(c)
                sides[side + 1].append(lead)
        rows.certificates.append((*map(tuple, sides), cb))
    return cb


def contains_monomial(cb):
    """A monomial in the row span, as a pair monomial, if any; in RREF that
    is a unit row."""
    for row in cb.rows:
        if len(row) == 1:
            (c,) = row
            return pair_monomials(cb.n, cb.d, [cb.monomials[c]])[0]
    return None


def is_binomially_spanned(cb):
    return all(len(row) <= 2 for row in cb.rows)


def quadratic_generation_check(A, n, d, mu):
    """Compare the component of the ideal generated by the initial parts
    of the Pluecker relations with the full initial-ideal component; when
    each is its relation, the marked relations serve the cached rows."""
    d, mu = tuple(d), tuple(mu)
    g = grading_vector(A, d)
    gens = plucker_relations(n, d)
    inits = [initial_part(rel, g).canonical() for rel in gens]
    quad = gens if inits == list(gens) else list(
        {init.key(): init for init in inits}.values())  # distinct, in order
    full = initial_component(gens, n, d, mu, g)
    return component_basis(quad, n, d, mu).rank == full.rank


def face_degeneration_check(A, B, n, d, mu):
    """Check that the grading of B degenerates the initial ideal of A into
    the initial ideal of B on the given component.

    Requires the minimal face containing B to contain the minimal face
    containing A.
    """
    d, mu = tuple(d), tuple(mu)
    if not face_contains(face_signature(B), face_signature(A)):
        raise ValueError("face precondition fails: B's face must contain A's face")
    gens = plucker_relations(n, d)
    gA = grading_vector(A, d)
    gB = grading_vector(B, d)
    ideal_A = initial_component(gens, n, d, mu, gA)
    grades_B = _column_grades(ideal_A.monomials, gB, n, d)
    lhs = canonical_rows(_initial_rows(ideal_A.rows, grades_B))
    rhs = initial_component(gens, n, d, mu, gB).span_key()
    return lhs == rhs


def classical_component(n, d, mu):
    """Component basis with the zero grading (classical recovery)."""
    d = tuple(d)
    g = grading_vector(zero_weight_system(n), d)
    return initial_component(plucker_relations(n, d), n, d, tuple(mu), g)


def multidegrees_up_to(d, bound):
    """All nonzero multidegrees over d of total degree <= bound, by total
    degree and then lexicographically."""
    out = [()]
    for _ in d:
        out = [mu + (v,) for mu in out for v in range(bound + 1 - sum(mu))]
    return sorted((mu for mu in out if any(mu)), key=lambda mu: (sum(mu), mu))
