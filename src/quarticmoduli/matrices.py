"""Graded matrices of forms: morphisms between sums of line-bundle twists.

Rows index source summands and columns index target summands, matching the
displayed convention res1 = [[z1, q1], [z2, q2]] with source degrees (3, 3)
and target degrees (2, 0).  Entry (i, j) is homogeneous of degree
src_degrees[i] - tgt_degrees[j]; a negative required degree forces zero.

``det`` and ``mat_mul`` are the package's single determinant and matrix
product; they work on plain grids of ``MultiPoly`` over any domain, and
sum each entry's products with ``poly.dot`` in one raw dict.  FormMatrix
wraps them with degree bookkeeping.
"""

import json
import random

from .field import QQ
from .poly import (
    Form,
    MultiPoly,
    ParseError,
    PowerDegreeError,
    dot,
    linear_rank,
    monomials_of_degree,
    parse_entry,
)


class DegreeError(ValueError):
    """Raised when an entry violates the graded degree contract."""


class FormMatrix:
    __slots__ = ("src_degrees", "tgt_degrees", "entries")

    def __init__(self, src_degrees, tgt_degrees, entries):
        self.src_degrees = tuple(src_degrees)
        self.tgt_degrees = tuple(tgt_degrees)
        if len(entries) != len(self.src_degrees):
            raise DegreeError("row count does not match src_degrees")
        grid = []
        for i, row in enumerate(entries):
            if len(row) != len(self.tgt_degrees):
                raise DegreeError(f"column count mismatch in row {i}")
            out_row = []
            for j, entry in enumerate(row):
                need = self.src_degrees[i] - self.tgt_degrees[j]
                if entry:
                    if need < 0 or entry.degree != need:
                        raise _entry_degree_error(i, j, need, entry.poly)
                    out_row.append(entry)
                else:
                    out_row.append(Form.zero(entry.domain, max(need, 0)))
            grid.append(tuple(out_row))
        self.entries = tuple(grid)

    @classmethod
    def from_polys(cls, src_degrees, tgt_degrees, polys):
        """The matrix whose entry (i, j) is the polynomial polys[i][j], read
        as a form of the degree the shape requires; a wrong degree raises
        DegreeError."""
        grid = []
        for i, row in enumerate(polys):
            out_row = []
            for j, poly in enumerate(row):
                need = src_degrees[i] - tgt_degrees[j]
                try:
                    out_row.append(Form(poly, max(need, 0)))
                except ValueError:
                    raise _entry_degree_error(i, j, need, poly) from None
            grid.append(out_row)
        return cls(src_degrees, tgt_degrees, grid)

    @property
    def nrows(self):
        return len(self.src_degrees)

    @property
    def ncols(self):
        return len(self.tgt_degrees)

    @property
    def domain(self):
        return self.entries[0][0].domain

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
        return FormMatrix(
            self.src_degrees,
            self.tgt_degrees,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def scaled(self, scalar):
        return FormMatrix(
            self.src_degrees,
            self.tgt_degrees,
            [[e * scalar for e in row] for row in self.entries],
        )

    def row(self, i):
        return self.entries[i]

    def with_row(self, i, new_row):
        rows = [list(r) for r in self.entries]
        rows[i] = list(new_row)
        return FormMatrix(self.src_degrees, self.tgt_degrees, rows)

    def transpose(self):
        """The transpose, from the negated target degrees to the negated
        source degrees, so that every entry keeps its degree."""
        return FormMatrix([-d for d in self.tgt_degrees],
                          [-d for d in self.src_degrees],
                          list(zip(*self.entries)))

    def submatrix(self, rows, cols):
        return FormMatrix(
            [self.src_degrees[i] for i in rows],
            [self.tgt_degrees[j] for j in cols],
            [[self.entries[i][j] for j in cols] for i in rows],
        )

    def determinant(self):
        """Exact determinant, homogeneous of degree sum(src) - sum(tgt).

        Cofactor expansion along the sparsest row or column; matrix sizes in
        this package never exceed 5.
        """
        if self.nrows != self.ncols:
            raise DegreeError("determinant of a non-square matrix")
        degree = sum(self.src_degrees) - sum(self.tgt_degrees)
        return Form(det(_polys(self)), degree if degree >= 0 else 0)

    def maximal_minors(self):
        """Signed maximal minors.

        For r < c the j-th minor deletes column j and carries sign (-1)^j,
        so that bordering with a top row q gives the Laplace identity
        det = sum_j q[j] * minor[j].  For r > c rows are deleted instead,
        with sign (-1)^i.
        """
        wide = self.nrows <= self.ncols
        n, m = (self.nrows, self.ncols) if wide else (self.ncols, self.nrows)
        if m != n + 1:
            raise DegreeError("need an (n)x(n+1) shape for minors" if wide
                              else "need an (n+1)x(n) shape for minors")
        kept = list(range(n))
        minors = []
        for j in range(m):
            rest = [k for k in range(m) if k != j]
            rows, cols = (kept, rest) if wide else (rest, kept)
            minor = self.submatrix(rows, cols).determinant()
            minors.append(minor if j % 2 == 0 else -minor)
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
        rows = "\n".join(
            "  [" + ", ".join(e.serialize() for e in row) + "]"
            for row in self.entries
        )
        return f"FormMatrix(src={self.src_degrees}, tgt={self.tgt_degrees},\n{rows})"


def _entry_degree_error(i, j, need, poly):
    return DegreeError(f"entry ({i},{j}) must have degree {need}, "
                       f"got {poly.total_degree()}: {poly.serialize()}")


def _polys(matrix):
    return [[e.poly for e in row] for row in matrix.entries]


def det(grid):
    """Determinant of a square grid of polynomials over one domain (QQ,
    GF(p) or a parameter ring).

    Cofactor expansion along the row or column with the most zero
    entries, each cofactor sum one ``dot``; matrix sizes in this package
    never exceed 5.
    """
    n = len(grid)
    if n == 1:
        return grid[0][0]
    domain = grid[0][0].domain
    if n == 2:
        return dot([(grid[0][0], grid[1][1]), (grid[0][1], grid[1][0])],
                   domain, negated=(1,))
    row_zeros = [sum(1 for e in row if not e) for row in grid]
    col_zeros = [sum(1 for row in grid if not row[j]) for j in range(n)]
    bi, bz = max(enumerate(row_zeros), key=lambda t: t[1])
    bj, cz = max(enumerate(col_zeros), key=lambda t: t[1])
    if cz > bz:
        # a column is sparser: expand along it as a row of the transpose
        grid = [list(col) for col in zip(*grid)]
        bi = bj
    pairs, negated = [], []
    for j, e in enumerate(grid[bi]):
        if not e:
            continue
        sub = [
            [grid[i][k] for k in range(n) if k != j]
            for i in range(n)
            if i != bi
        ]
        if (bi + j) % 2:
            negated.append(len(pairs))
        pairs.append((e, det(sub)))
    return dot(pairs, domain, negated)


def make_matrix(src_degrees, tgt_degrees, entry_texts, domain=QQ):
    """Parse a grid of polynomial texts into a degree-checked FormMatrix.

    A power above its entry's required degree is refused before it is
    expanded, so a huge exponent cannot stall the parse.  Every parse
    error names its entry.
    """
    entries = []
    for i, row in enumerate(entry_texts):
        out_row = []
        for j, text in enumerate(row):
            need = src_degrees[i] - tgt_degrees[j]
            try:
                form = parse_entry(text, need, domain)
            except PowerDegreeError as exc:
                raise DegreeError(f"entry ({i},{j}) must have degree {need}, "
                                  f"got {exc}: {text!r}") from None
            except ParseError as exc:
                raise ParseError(f"entry ({i},{j}): {exc}") from None
            if form and (need < 0 or form.degree != need):
                raise DegreeError(
                    f"entry ({i},{j}) must have degree {need}, "
                    f"got {form.degree}: {text!r}"
                )
            if not form:
                form = Form.zero(domain, max(need, 0))
            out_row.append(form)
        entries.append(out_row)
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


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list",
               dict: "a JSON object"}


def check_json_type(value, path, kind):
    """value, if its type is kind (bool is not an integer); otherwise a
    ValueError naming the JSON path (none at the top level)."""
    if type(value) is not kind:
        raise ValueError(f"{path + ': ' if path else ''}expected "
                         f"{_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def check_json_list(value, path, item_type, length=None):
    """value, if it is a JSON list (of the given length) of item_type
    items; otherwise a ValueError naming the JSON path."""
    check_json_type(value, path, list)
    if length is not None and len(value) != length:
        raise ValueError(f"{path}: expected {length} items, got {len(value)}")
    for i, item in enumerate(value):
        check_json_type(item, f"{path}[{i}]", item_type)
    return value


def load_json(path):
    """The JSON value in a file; nesting too deep to decode is a
    ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


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
        self.matrix = matrix
        for d in set(matrix.src_degrees):
            idx = [i for i, s in enumerate(matrix.src_degrees) if s == d]
            block = matrix.submatrix(idx, idx)
            if not block.determinant():
                raise DegreeError(
                    f"scalar block for degree {d} is not invertible"
                )

    @property
    def degrees(self):
        return self.matrix.src_degrees

    def determinant(self):
        return self.matrix.determinant()


def act(g, a, h):
    """The product g * a * h of graded automorphisms around a matrix."""
    if isinstance(g, GradedAutomorphism):
        g = g.matrix
    if isinstance(h, GradedAutomorphism):
        h = h.matrix
    if g.tgt_degrees != a.src_degrees:
        raise DegreeError("left automorphism does not match source degrees")
    if a.tgt_degrees != h.src_degrees:
        raise DegreeError("right automorphism does not match target degrees")
    ga = _multiply(g, a)
    return _multiply(ga, h)


def _multiply(a, b):
    return FormMatrix.from_polys(a.src_degrees, b.tgt_degrees,
                                 mat_mul(_polys(a), _polys(b)))


def mat_mul(a, b):
    """Product of two grids of polynomials over one domain, each entry
    one ``dot`` over the pairs with no zero factor."""
    domain = a[0][0].domain
    cols = list(zip(*b))
    return [[dot([(x, y) for x, y in zip(row, col) if x and y], domain)
             for col in cols] for row in a]


def identity_automorphism(degrees, domain=QQ):
    one = MultiPoly.constant(domain, 1)
    zero = MultiPoly.zero(domain)
    n = len(degrees)
    return GradedAutomorphism(FormMatrix.from_polys(
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
        rows = [list(r) for r in m.entries]
        rows[self.i] = [e * c for e in rows[self.i]]
        return FormMatrix(m.src_degrees, m.tgt_degrees, rows)


class AddMultipleOfRow(ElementaryOp):
    """target_row += multiplier * source_row, degree bookkeeping enforced."""

    def __init__(self, target, source, multiplier):
        self.target, self.source, self.multiplier = target, source, multiplier

    def apply(self, m):
        mult = self.multiplier
        need = m.src_degrees[self.target] - m.src_degrees[self.source]
        if mult.degree != need and mult:
            raise DegreeError(
                f"multiplier must have degree {need}, got {mult.degree}"
            )
        rows = [list(r) for r in m.entries]
        rows[self.target] = [
            a + mult * b if b else a
            for a, b in zip(rows[self.target], rows[self.source])
        ]
        return FormMatrix(m.src_degrees, m.tgt_degrees, rows)


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
    return Form(MultiPoly.from_raw(domain, {
        mono: rng.randrange(p) if p else rng.randrange(-9, 10)
        for mono in monomials_of_degree(degree)
    }), degree)


def random_matrix(shape, field, seed=None, rng=None):
    """Uniform random matrix of a named shape; deterministic per seed."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}; known: {sorted(SHAPES)}")
    if rng is None:
        rng = random.Random(seed)
    src, tgt = SHAPES[shape]
    entries = [
        [random_form(field, s - t, rng) for t in tgt] for s in src
    ]
    return FormMatrix(src, tgt, entries)


def random_graded_automorphism(degrees, field, rng):
    """A random invertible graded automorphism for the given degrees."""
    n = len(degrees)
    while True:
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                d = degrees[i] - degrees[j]
                if d < 0:
                    row.append(Form.zero(field, 0))
                else:
                    row.append(random_form(field, d, rng))
            entries.append(row)
        m = FormMatrix(degrees, degrees, entries)
        try:
            return GradedAutomorphism(m)
        except DegreeError:
            continue
