"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping a sortable column label to a nonzero int or
Fraction. :class:`Echelon` keeps an echelon basis of the inserted vectors
in a column order: the order of the labels, or that of a key on them,
such as the (grade, column) order of an initial ideal.

Rows enter as integers on the hot paths (ideal components, module
closures) and stay integers: each vector becomes a primitive integer
row, copied only when it changes, denominators cleared only if it has
Fraction entries, and is reduced fraction-free in the spirit of Bareiss
(Math. Comp. 22, 1968). One integer back-substitution,
:meth:`Echelon.rref`, gives the reduced rows; Fractions are built in one
place, :func:`pivot_one`, which :meth:`Echelon.reduced_rows` calls, once
per distinct (entry, pivot coefficient) pair of a call, each row once in
its canonical form, (column, Fraction) pairs sorted by column: the RREF is
unique, so equal spans give equal rows, their own hashable span key.
"""

from fractions import Fraction
from functools import partial
from math import gcd, lcm


def _primitive(vec):
    """Divide an integer vector in place by the gcd of its entries; a zero
    vector, of gcd 0, stays as it is."""
    g = gcd(*vec.values())
    if g > 1:
        for col in vec:
            vec[col] //= g
    return vec


def _integral(vec):
    """A primitive integer multiple of a rational vector; vec itself if it is one."""
    try:
        g = gcd(*vec.values())  # TypeError unless every entry is an int
    except TypeError:
        den = lcm(*[v.denominator for v in vec.values()])
        return _primitive({c: v.numerator * (den // v.denominator) for c, v in vec.items()})
    return vec if g <= 1 else {c: v // g for c, v in vec.items()}


def _eliminate(vec, row, col):
    """Clear column col of the integer vector vec with row, in place:
    vec := (b/g)*vec - (a/g)*row with a = vec[col], b = row[col] and
    g = gcd(a, b) > 0, made primitive unless b = 1. A negative b flips the
    sign of the entries of vec off row's support."""
    a, b = vec[col], row[col]
    if b != 1:
        g = gcd(a, b)
        a //= g
        b //= g
        if b != 1:
            for c in vec:
                vec[c] *= b
    for c, v in row.items():
        new = vec.get(c, 0) - a * v
        if new:
            vec[c] = new
        else:
            del vec[c]
    if b != 1:
        _primitive(vec)


class Echelon:
    """Incremental echelon basis of sparse rational vectors.

    The pivot of a vector is its least column under ``order``, a key
    with distinct values on distinct column labels (None: the labels' own
    order). Stored rows are integer vectors with a positive pivot, keyed
    by pivot; :meth:`insert` stores them primitive. A caller that already
    holds integer rows with distinct positive pivots may put them into
    ``rows`` directly. Stored rows are never changed; a primitive integer
    row that needs no reduction is stored as inserted, so a caller must
    not change it afterwards.
    """

    def __init__(self, order=None):
        self.order = order
        self.least = min if order is None else partial(min, key=order)  # the pivot of a row
        self.rows = {}  # pivot column -> primitive integer row

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, vec):
        """Insert vec, left unchanged; return its pivot column, or None if dependent."""
        new = _integral(vec)
        rows, least = self.rows, self.least
        while new:
            pivot = least(new)
            row = rows.get(pivot)
            if row is None:
                if new is not vec:  # _eliminate makes it primitive only if b != 1
                    _primitive(new)
                rows[pivot] = new if new[pivot] > 0 else {c: -v for c, v in new.items()}
                return pivot
            if new is vec:
                new = dict(vec)
            _eliminate(new, row, pivot)
        return None

    def rref(self):
        """The integer reduced rows, sorted by pivot in the column order:
        with a positive pivot and zero on every other row's pivot column,
        and primitive if the stored rows are, as insert stores them. A
        stored row that needs no reduction is returned as stored."""
        pivots = sorted(self.rows, key=self.order)
        reduced = {}
        for pivot in reversed(pivots):
            row = self.rows[pivot]
            # Rows already reduced vanish on every other pivot column, so
            # they clear those columns in any order; b > 0 keeps this
            # row's pivot positive.
            cols = row.keys() & reduced.keys()
            if cols:
                row = dict(row)
                for col in cols:
                    _eliminate(row, reduced[col], col)
                _primitive(row)
            reduced[pivot] = row
        return [reduced[pivot] for pivot in pivots]

    def reduced_rows(self):
        """Fully reduced (RREF) rows with pivot coefficient 1, sorted by
        pivot in the column order, in pivot_one's canonical form."""
        return pivot_one(self.rref(), self.least)


def pivot_one(rows, least=min):
    """The integer rows, each divided by its pivot entry, at the column
    least(row) (the least label by default), in the same order: a tuple
    of rows, each a tuple of its (column, Fraction) pairs sorted by column."""
    fractions = {}  # pivot coefficient -> {entry: Fraction}; mostly +-1, +-2
    out = []
    for row in rows:
        p = row[least(row)]
        memo = fractions.setdefault(p, {})
        frac_row = []
        for c, v in sorted(row.items()):
            f = memo.get(v)
            if f is None:
                f = memo[v] = Fraction(v, p)
            frac_row.append((c, f))
        out.append(tuple(frac_row))
    return tuple(out)
