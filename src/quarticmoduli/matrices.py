"""Graded matrices of forms: morphisms between sums of line-bundle twists.

Rows index source summands and columns index target summands, matching the
displayed convention res1 = [[z1, q1], [z2, q2]] with source degrees (3, 3)
and target degrees (2, 0).  Entry (i, j) is homogeneous of degree
src_degrees[i] - tgt_degrees[j]; a negative required degree forces zero.

``FormMatrix(src, tgt, entries)`` is the one constructor, and it checks
this contract on Forms and polynomials alike, where a matrix enters: a
parser, a JSON loader, a sampler or a caller's entries.  A Form of the
required degree is kept after one comparison, and a zero entry takes the
required degree max(need, 0).  Matrices derived from checked ones are
built unchecked by ``_derived``, as ``poly._graded`` builds forms: sums,
scalings, transposes, submatrices, the elementary operations and the
result of ``act``.  Their entries are forms whose degrees the checked
inputs fix, so each keeps its required degree, a zero entry included.

``FormMatrix.determinant`` is the package's one determinant and
``maximal_minors`` gives the signed maximal minors; both run ``_expand``,
a memoized Laplace expansion along the columns in turn, on term dicts:
the determinant of each row subset over the columns left is one
``poly.dot_raw``, the entries of odd sign negated, taken once, and the
result is made canonical once.  The maximal minors of an (n+1) x n
matrix, or of the transpose of an n x (n+1) one, share one memo; minor j
is one expansion with the sign (-1)^j, with no submatrix.  ``act`` is the
one matrix product: each entry of g * a * h is one ``poly.dot_raw``, into
one derived matrix.  A ``GradedAutomorphism`` tests its scalar blocks
with ``poly._eliminate`` on their raw constants.
"""

import random

from .field import (QQ, FieldMismatchError, check_json_list, check_json_type,
                    load_json)
from .poly import (
    Form,
    MultiPoly,
    ParseError,
    PowerDegreeError,
    _eliminate,
    _graded,
    dot_raw,
    keys_of_degree,
    linear_rank,
    parse_entry,
)


class DegreeError(ValueError):
    """Raised when an entry violates the graded degree contract."""


class FormMatrix:
    """A graded matrix of forms, checked once where it enters: each entry
    is a Form of degree max(src_degrees[i] - tgt_degrees[j], 0).  The
    matrices derived from it are not checked again (see ``_derived``)."""

    __slots__ = ("src_degrees", "tgt_degrees", "entries")

    def __init__(self, src_degrees, tgt_degrees, entries):
        """The checked matrix: entry (i, j) may be a Form or a MultiPoly
        over the domain of entry (0, 0) and must be homogeneous of degree
        src_degrees[i] - tgt_degrees[j], or zero; a wrong degree raises
        DegreeError and another domain FieldMismatchError, naming the
        entry."""
        self.src_degrees = tuple(src_degrees)
        self.tgt_degrees = tuple(tgt_degrees)
        if len(entries) != len(self.src_degrees):
            raise DegreeError("row count does not match src_degrees")
        domain = entries[0][0].domain if entries and len(entries[0]) else None
        grid = []
        for i, (s, row) in enumerate(zip(self.src_degrees, entries)):
            if len(row) != len(self.tgt_degrees):
                raise DegreeError(f"column count mismatch in row {i}")
            grid.append(tuple([
                entry if isinstance(entry, Form) and entry.degree == s - t
                and entry.domain is domain
                else _graded_entry(f"entry ({i},{j})", s - t, entry, domain)
                for j, (t, entry) in enumerate(zip(self.tgt_degrees, row))]))
        self.entries = tuple(grid)

    @property
    def nrows(self):
        return len(self.src_degrees)

    @property
    def ncols(self):
        return len(self.tgt_degrees)

    @property
    def domain(self):
        """The domain of entry (0, 0); a matrix with no entries has none."""
        try:
            return self.entries[0][0].domain
        except IndexError:
            raise DegreeError(f"a {self.nrows}x{self.ncols} matrix has no "
                              "entries") from None

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return (
            self.src_degrees == other.src_degrees
            and self.tgt_degrees == other.tgt_degrees
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.src_degrees, self.tgt_degrees, self.entries))

    def __add__(self, other):
        if (
            self.src_degrees != other.src_degrees
            or self.tgt_degrees != other.tgt_degrees
        ):
            raise DegreeError("shape mismatch in matrix sum")
        return _derived(self.src_degrees, self.tgt_degrees, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)])

    def scaled(self, scalar):
        """The matrix times a scalar, unboxed once: each entry is one pass
        over its raw values, made canonical, and keeps its degree."""
        domain, v = self.domain, self.domain.unbox(scalar)
        return _derived(self.src_degrees, self.tgt_degrees, [
            [_graded(domain, domain.canonical({k: c * v for k, c in
                                               e.raw.items()}), e.degree)
             for e in row] for row in self.entries])

    def row(self, i):
        return self.entries[i]

    def transpose(self):
        """The transpose, from the negated target degrees to the negated
        source degrees, so that every entry keeps its degree."""
        return _derived(tuple(-d for d in self.tgt_degrees),
                        tuple(-d for d in self.src_degrees),
                        zip(*self.entries))

    def submatrix(self, rows, cols):
        return _derived(
            tuple(self.src_degrees[i] for i in rows),
            tuple(self.tgt_degrees[j] for j in cols),
            [[self.entries[i][j] for j in cols] for i in rows])

    def determinant(self):
        """Exact determinant, homogeneous of degree sum(src) - sum(tgt), by
        the memoized Laplace expansion ``_expand``."""
        domain = self.domain
        if self.nrows != self.ncols:
            raise DegreeError("determinant of a non-square matrix")
        terms = _expand(_raw_grid(self.entries, domain),
                        tuple(range(self.nrows)), 0, {})
        degree = sum(self.src_degrees) - sum(self.tgt_degrees)
        return _graded(domain, domain.canonical(terms), max(degree, 0))

    def maximal_minors(self):
        """Signed maximal minors.

        For r < c the j-th minor deletes column j and carries sign (-1)^j,
        so that bordering with a top row q gives the Laplace identity
        det = sum_j q[j] * minor[j].  For r > c rows are deleted instead,
        with sign (-1)^i.
        """
        domain = self.domain
        wide = self.nrows <= self.ncols
        n, m = (self.nrows, self.ncols) if wide else (self.ncols, self.nrows)
        if m != n + 1:
            raise DegreeError("need an (n)x(n+1) shape for minors" if wide
                              else "need an (n+1)x(n) shape for minors")
        # the minors of the (n+1) x n grid, as rows of the transpose if wide
        grid = _raw_grid(list(zip(*self.entries)) if wide else self.entries,
                         domain)
        total = sum(self.src_degrees) - sum(self.tgt_degrees)
        memo, minors = {}, []
        for j in range(m):
            rest = tuple(k for k in range(m) if k != j)
            minor = _expand(grid, rest, 0, memo, j)
            degree = total + (self.tgt_degrees[j] if wide
                              else -self.src_degrees[j])
            minors.append(_graded(domain, domain.canonical(minor),
                                  max(degree, 0)))
        return minors

    def serialize_entries(self):
        return [[e.serialize() for e in row] for row in self.entries]

    def to_json_dict(self):
        return {
            "src_degrees": list(self.src_degrees),
            "tgt_degrees": list(self.tgt_degrees),
            "entries": self.serialize_entries(),
        }

    def __repr__(self):
        rows = "\n".join("  [" + ", ".join(row) + "]"
                         for row in self.serialize_entries())
        return f"FormMatrix(src={self.src_degrees}, tgt={self.tgt_degrees},\n{rows})"


def _derived(src_degrees, tgt_degrees, rows):
    """The FormMatrix of tuples of degrees and rows of Forms that checked
    inputs fix, unchecked: each entry (i, j) must already be a Form of
    degree max(src_degrees[i] - tgt_degrees[j], 0), such as an entry, a
    sum or a scalar multiple of entries of checked matrices."""
    m = object.__new__(FormMatrix)
    m.src_degrees, m.tgt_degrees = src_degrees, tgt_degrees
    m.entries = tuple(map(tuple, rows))
    return m


def _graded_entry(name, need, entry, domain=None):
    """An entry, a Form or a MultiPoly, checked as a form of degree need,
    and over domain when one is given, a zero as the zero form of degree
    max(need, 0); a DegreeError or FieldMismatchError names it as name,
    such as "entry (0,1)" or "multiplier"."""
    if domain is not None and entry.domain is not domain \
            and entry.domain != domain:
        raise FieldMismatchError(f"{name} is over {entry.domain}, "
                                 f"entry (0,0) over {domain}")
    if not entry:
        return _graded(entry.domain, {}, max(need, 0))
    try:
        return Form(entry, need)  # refuses a negative need too
    except ValueError:
        raise DegreeError(f"{name} must have degree {need}, got "
                          f"{entry.total_degree()}: {entry.serialize()}") \
            from None


def _expand(grid, rows, col, memo, sign=0):
    """(-1)^sign times the determinant of the rows of a grid of term dicts
    over the columns from col on, a term dict not yet canonical, expanded
    along col in one ``dot_raw``; the determinants of the row subsets over
    the columns after col are kept in memo."""
    pairs = []
    for k, i in enumerate(rows):
        entry = grid[i][col]
        if not entry:
            continue
        rest = rows[:k] + rows[k + 1:]
        if len(rest) < 2:  # the determinant of no rows is 1
            minor = grid[rest[0]][col + 1] if rest else {0: 1}
        elif rest in memo:
            minor = memo[rest]
        else:
            minor = memo[rest] = _expand(grid, rest, col + 1, memo)
        if minor:
            if (k + sign) % 2:
                entry = {e: -v for e, v in entry.items()}
            pairs.append((entry, minor))
    return dot_raw(pairs)


def make_matrix(src_degrees, tgt_degrees, entry_texts, domain=QQ):
    """Parse a grid of polynomial texts into a FormMatrix, whose
    constructor checks the degrees.

    A power above its entry's required degree is refused before it is
    expanded, so a huge exponent cannot stall the parse.  Every parse
    error names its entry.
    """
    # a text outside the shape stays unparsed: the constructor refuses a
    # grid of another shape before it reads an entry of that row
    entries = [list(row) for row in entry_texts]
    for i, (s, row) in enumerate(zip(src_degrees, entries)):
        for j, (t, text) in enumerate(zip(tgt_degrees, row)):
            need = s - t
            try:
                row[j] = parse_entry(text, need, domain)
            except PowerDegreeError as exc:
                raise DegreeError(f"entry ({i},{j}) must have degree {need}, "
                                  f"got {exc}: {text!r}") from None
            except ParseError as exc:
                raise ParseError(f"entry ({i},{j}): {exc}") from None
    return FormMatrix(src_degrees, tgt_degrees, entries)


def matrix_from_json_dict(data, domain=QQ):
    """Parse a matrix description; malformed input raises a ValueError
    that names its JSON path."""
    check_json_type(data, "", dict)
    src = check_json_list(data.get("src_degrees"), "src_degrees", int)
    tgt = check_json_list(data.get("tgt_degrees"), "tgt_degrees", int)
    entries = check_json_list(data.get("entries"), "entries", list, len(src))
    for i, row in enumerate(entries):
        check_json_list(row, f"entries[{i}]", str, len(tgt))
    return make_matrix(src, tgt, entries, domain)


def load_matrix(path, domain=QQ):
    return matrix_from_json_dict(load_json(path), domain)


class GradedAutomorphism:
    """An invertible degree-filtered square matrix acting on one side.

    Entries below the filtration (src[i] - src[j] < 0) vanish and the
    constant blocks on each degree class must be invertible.
    """

    def __init__(self, matrix):
        if matrix.src_degrees != matrix.tgt_degrees:
            raise DegreeError("automorphism needs equal src and tgt degrees")
        if not matrix.domain.is_field:
            raise TypeError("an automorphism's scalar blocks need a field")
        self.matrix = matrix
        for d in set(matrix.src_degrees):
            idx = [i for i, s in enumerate(matrix.src_degrees) if s == d]
            block = [[matrix.entries[i][j].raw.get(0, 0) for j in idx]
                     for i in idx]  # the constants of degree-0 forms
            if len(_eliminate(block, matrix.domain.modulus)) < len(idx):
                raise DegreeError(
                    f"scalar block for degree {d} is not invertible"
                )

    def determinant(self):
        return self.matrix.determinant()


def act(g, a, h):
    """The product g * a * h of graded automorphisms around a matrix; the
    rows of g * a stay term dicts, and each entry is one canonical form of
    the degree that the checked factors fix, in a matrix not checked
    again."""
    g, h = (m.matrix if isinstance(m, GradedAutomorphism) else m
            for m in (g, h))
    if g.tgt_degrees != a.src_degrees:
        raise DegreeError("left automorphism does not match source degrees")
    if a.tgt_degrees != h.src_degrees:
        raise DegreeError("right automorphism does not match target degrees")
    domain = a.domain
    rows, grid, cols = (_raw_grid(m.entries, domain) for m in (g, a, h))
    ga = [[dot_raw(zip(row, col)) for col in zip(*grid)] for row in rows]
    return _derived(g.src_degrees, h.tgt_degrees, [
        [_graded(domain, domain.canonical(dot_raw(zip(row, col))),
                 max(s - t, 0)) for t, col in zip(h.tgt_degrees, zip(*cols))]
        for s, row in zip(g.src_degrees, ga)])


def _raw_grid(rows, domain):
    """The term dicts of a grid of polynomials, each checked over domain."""
    for row in rows:
        for e in row:
            if e.domain is not domain:
                domain.check_same(e.domain)
    return [[e.raw for e in row] for row in rows]


def identity_automorphism(degrees, domain=QQ):
    one = MultiPoly.constant(domain, 1)
    zero = MultiPoly.zero(domain)
    n = len(degrees)
    return GradedAutomorphism(FormMatrix(
        degrees, degrees, [[one if i == j else zero for j in range(n)]
                           for i in range(n)]))


# ---- elementary operations --------------------------------------------


class ElementaryOp:
    """A recorded, replayable, degree-checked elementary operation."""

    def apply(self, matrix):
        raise NotImplementedError


class ScaleRow(ElementaryOp):
    def __init__(self, i, scalar):
        self.i, self.scalar = i, scalar

    def apply(self, m):
        c = m.domain.scalar(self.scalar)
        if not c:
            raise DegreeError("scale must be nonzero")
        rows = list(m.entries)
        rows[self.i] = [e * c for e in rows[self.i]]
        return _derived(m.src_degrees, m.tgt_degrees, rows)


class AddMultipleOfRow(ElementaryOp):
    """target_row += multiplier * source_row, degree bookkeeping enforced:
    a nonzero multiplier, a Form or a MultiPoly, must be a form of degree
    src[target] - src[source], and then each nonzero product has its
    entry's degree; a zero multiplier, of any degree, returns the matrix
    unchanged."""

    def __init__(self, target, source, multiplier):
        self.target, self.source, self.multiplier = target, source, multiplier

    def apply(self, m):
        mult = self.multiplier
        if not mult:
            return m
        mult = _graded_entry("multiplier", m.src_degrees[self.target]
                             - m.src_degrees[self.source], mult)
        rows = list(m.entries)
        rows[self.target] = [
            a + mult * b if b else a
            for a, b in zip(rows[self.target], rows[self.source])
        ]
        return _derived(m.src_degrees, m.tgt_degrees, rows)


class _OnColumns:
    """A row operation applied to the columns, through the transpose."""

    def apply(self, m):
        return super().apply(m.transpose()).transpose()


class ScaleCol(_OnColumns, ScaleRow):
    """Column i scaled by a nonzero scalar."""


class AddMultipleOfCol(_OnColumns, AddMultipleOfRow):
    """target_col += multiplier * source_col."""


def apply_ops(matrix, ops):
    for op in ops:
        matrix = op.apply(matrix)
    return matrix


# ---- stability and sampling -------------------------------------------


def is_stable_kronecker(k):
    """A 2x3 matrix of linear forms is stable iff its minors span rank 3."""
    if k.nrows != 2 or k.ncols != 3:
        raise DegreeError("Kronecker module must be 2x3")
    for row in k.entries:
        for e in row:
            if e and e.degree != 1:
                raise DegreeError("Kronecker entries must be linear")
    return stable_kronecker_minors(k.maximal_minors())


def stable_kronecker_minors(minors):
    """The stability rule on the three maximal minors of a 2x3 matrix of
    linear forms: the conics must span a space of rank 3."""
    return linear_rank(minors, 2) == 3


SHAPES = {
    "res0": ((3, 2, 2), (1, 1, 1)),
    "res1": ((3, 3), (2, 0)),
}


def random_form(domain, degree, rng):
    """A form of the given degree with one coefficient drawn by rng per
    monomial in graded-lex order: uniform in [0, p) over GF(p), an integer
    uniform in [-9, 9] over QQ; other domains are refused."""
    if not domain.is_field:
        raise ValueError(f"random sampling needs a field, not {domain}")
    p = domain.modulus
    return _graded(domain, {
        key: c for key in keys_of_degree(degree)
        if (c := rng.randrange(p) if p else rng.randrange(-9, 10))}, degree)


def random_matrix(shape, field, seed=None, rng=None):
    """Uniform random matrix of a named shape; deterministic per seed."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}; known: {sorted(SHAPES)}")
    if rng is None:
        rng = random.Random(seed)
    src, tgt = SHAPES[shape]
    return FormMatrix(src, tgt, [[random_form(field, s - t, rng) for t in tgt]
                                 for s in src])


def random_graded_automorphism(degrees, field, rng):
    """A random invertible graded automorphism for the given degrees, zero
    below the filtration."""
    zero = MultiPoly.zero(field)
    while True:
        entries = [[random_form(field, s - t, rng) if s >= t else zero
                    for t in degrees] for s in degrees]
        try:
            return GradedAutomorphism(FormMatrix(degrees, degrees, entries))
        except DegreeError:
            continue
