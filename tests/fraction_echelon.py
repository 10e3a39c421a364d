"""Reference echelon kernel over Fractions, kept for the tests only.

This is the package's original ``Echelon``: every vector is reduced and
stored with Fraction coefficients and pivot coefficient 1. The tests
compare the integer kernel of ``pbwdegen.linalg`` against it, its dict
rows read in the package's canonical row form through ``canonical_rows``.
"""

from fractions import Fraction


def vec_add(u, v, c=Fraction(1)):
    """Return u + c*v as a fresh sparse vector."""
    out = dict(u)
    for col, val in v.items():
        new = out.get(col, Fraction(0)) + c * val
        if new:
            out[col] = new
        else:
            out.pop(col, None)
    return out


def vec_scale(u, c):
    c = Fraction(c)
    if not c:
        return {}
    return {col: c * val for col, val in u.items()}


class FractionEchelon:
    """Incremental echelon basis of sparse rational vectors.

    ``poskey`` maps a column label to a sortable position; the pivot of a
    vector is its poskey-least column. Inserted vectors are normalized to
    pivot coefficient 1.
    """

    def __init__(self, poskey=None):
        self.poskey = poskey if poskey is not None else (lambda col: col)
        self.rows = {}  # pivot column -> normalized row

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Reduce vec against the stored rows, returning the residual."""
        vec = dict(vec)
        while vec:
            pivot = min(vec, key=self.poskey)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            vec = vec_add(vec, row, -vec[pivot])
        return vec

    def insert(self, vec):
        """Insert vec; return its pivot column, or None if dependent."""
        residual = self.reduce(vec)
        if not residual:
            return None
        pivot = min(residual, key=self.poskey)
        self.rows[pivot] = vec_scale(residual, Fraction(1) / residual[pivot])
        return pivot

    def reduced_rows(self):
        """Fully reduced (RREF) rows, sorted by pivot position."""
        pivots = sorted(self.rows, key=self.poskey)
        reduced = {}
        for pivot in reversed(pivots):
            row = dict(self.rows[pivot])
            while True:
                stale = [c for c in row if c != pivot and c in reduced]
                if not stale:
                    break
                for col in stale:
                    if col in row:
                        row = vec_add(row, reduced[col], -row[col])
            reduced[pivot] = row
        return [reduced[p] for p in pivots]


def canonical_rows(rows):
    """Dict rows in the canonical form of ``pbwdegen.linalg.pivot_one``: a
    tuple of rows, each a tuple of its (column, entry) pairs sorted by
    column."""
    return tuple(tuple(sorted(row.items())) for row in rows)
