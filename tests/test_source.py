"""Source-level checks on the package."""

import ast
import importlib
from pathlib import Path

import pytest

from quarticmoduli.field import GF, FieldScalar, ParamScalar
from quarticmoduli.matrices import random_matrix

SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "quarticmoduli").glob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    # `python -O` strips assert statements, so invariant checks must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


# the functions that may read the boxed ``terms`` view: the two views
# themselves; the rest of the package, the serializers included, reads
# ``raw``, so printing boxes no scalar per term
TERMS_VIEW_READERS = {"MultiPoly.terms", "ParamScalar.terms"}


def qualified_uses(tree, matches):
    """(qualified enclosing class/function name, line) of every node for
    which matches(node) holds, and the set of every qualified
    class/function name."""
    uses, names = [], set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
                names.add(".".join(inner))
            elif matches(child):
                uses.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return uses, names


def qualified_attribute_uses(tree, attr):
    return qualified_uses(tree, lambda node: isinstance(node, ast.Attribute)
                          and node.attr == attr)


def test_terms_view_read_only_at_the_edge():
    # term dicts hold raw values; boxing each term belongs to the API and
    # serialization edge, not to the package's own loops
    offenders, names = [], set()
    for path in SOURCES:
        uses, defined = qualified_attribute_uses(
            ast.parse(path.read_text(), filename=str(path)), "terms")
        names |= defined
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses
                      if scope not in TERMS_VIEW_READERS]
    assert not offenders, f".terms read outside the edge: {offenders}"
    assert TERMS_VIEW_READERS <= names


def test_no_poly_attribute_read():
    # a Form is a MultiPoly, so the package takes forms as they are; the
    # Form.poly property, which returns the form itself, is kept only for
    # callers outside the package
    assert qualified_attribute_uses(ast.parse("f.poly.raw"), "poly")[0]
    assert not qualified_attribute_uses(
        ast.parse("from .poly import Form\nf.raw"), "poly")[0]
    offenders = []
    for path in SOURCES:
        uses, _ = qualified_attribute_uses(
            ast.parse(path.read_text(), filename=str(path)), "poly")
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses]
    assert not offenders, f".poly read in the package: {offenders}"


# the functions that may take a modular inverse pow(v, -1, p): each one
# knows that p is set, or its values are Fractions, since over QQ
# (p = None) pow(int, -1, None) gives a float
INVERSE_POW_CALLERS = {"FieldScalar.inverse", "PrimeField.unbox",
                       "MultiPoly.divmod", "_eliminate",
                       "build_twisted_ideal_resolution"}


def is_inverse_pow(node):
    """Whether the node is a call pow(_, -1, _)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3):
        return False
    try:
        return ast.literal_eval(node.args[1]) == -1
    except ValueError:
        return False


def test_inverse_pow_only_where_allowed():
    assert is_inverse_pow(ast.parse("pow(v, -1, p)").body[0].value)
    assert not is_inverse_pow(ast.parse("pow(v, 2, p)").body[0].value)
    offenders, names = [], set()
    for path in SOURCES:
        uses, defined = qualified_uses(
            ast.parse(path.read_text(), filename=str(path)), is_inverse_pow)
        names |= defined
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses
                      if scope not in INVERSE_POW_CALLERS]
    assert not offenders, f"pow(_, -1, _) outside the allow-list: {offenders}"
    assert INVERSE_POW_CALLERS <= names


# the one function that builds a parameter ring: the symbolic chart
# minors.  Every other verifier works over the base field, so a slow
# parameter-ring path does not come back into a hot one.
PARAM_RING_BUILDERS = {"verify_chart_minors"}


def is_param_ring_call(node):
    """Whether the node is a call ParamRing(...) or x.ParamRing(...)."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "ParamRing"
        or getattr(node.func, "attr", None) == "ParamRing")


def test_param_ring_built_only_for_chart_minors():
    assert is_param_ring_call(ast.parse("ParamRing(QQ, n)").body[0].value)
    assert is_param_ring_call(ast.parse("f.ParamRing(QQ, n)").body[0].value)
    assert not is_param_ring_call(ast.parse("ParamRing").body[0].value)
    offenders, names = [], set()
    for path in SOURCES:
        uses, defined = qualified_uses(
            ast.parse(path.read_text(), filename=str(path)),
            is_param_ring_call)
        names |= defined
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses
                      if scope not in PARAM_RING_BUILDERS]
    assert not offenders, f"ParamRing built outside the allow-list: {offenders}"
    assert PARAM_RING_BUILDERS <= names


# the functions with a product loop: a term loop nested in a term loop
# that adds the two monomial keys and multiplies the two values.  Every
# product and sum of products of polynomials in x0, x1, x2 goes through
# poly.dot_raw, the raw kernel under poly.dot and act, so no second
# multiplication loop comes back into det, mat_mul, act or their callers;
# the other is betti's product of dense integer coefficient vectors in q,
# whose keys are the indices.
PRODUCT_LOOPS = {"dot_raw", "PoincarePoly.__mul__"}


def _bound_names(target):
    return {node.id for node in ast.walk(target) if isinstance(node, ast.Name)}


def loops_across(node):
    """For a for loop, the set of operator types of the binary operations
    x op y, one name bound by it and one by a for loop inside it, for each
    loop inside it in turn; nothing for any other node."""
    if not isinstance(node, ast.For):
        return
    outer = _bound_names(node.target)
    for inner in ast.walk(node):
        if inner is node or not isinstance(inner, ast.For):
            continue
        names = _bound_names(inner.target)
        yield {type(sub.op) for sub in ast.walk(inner)
               if isinstance(sub, ast.BinOp)
               and isinstance(sub.left, ast.Name)
               and isinstance(sub.right, ast.Name)
               and ((sub.left.id in outer and sub.right.id in names)
                    or (sub.right.id in outer and sub.left.id in names))}


def is_product_loop(node):
    """Whether the node is a for loop with a for loop inside it that builds
    a sum ea + eb, or a tuple of such sums, and a product v * w, each of
    one name bound by each loop."""
    return any({ast.Add, ast.Mult} <= ops for ops in loops_across(node))


def test_one_product_loop():
    packed = """
for ea, v in left:
    for eb, w in right:
        e = ea + eb
        raw[e] = v * w + get(e, 0)
"""
    triples = """
for (a0, a1, a2), v in left:
    for (b0, b1, b2), w in right:
        e = (a0 + b0, a1 + b1, a2 + b2)
        raw[e] = v * w + get(e, 0)
"""
    # poly.multiples_matrix lays out the shifts of a polynomial as matrix
    # columns: a key sum with no product of values
    layout = """
for j, (m, terms) in enumerate(shifts):
    for e, c in terms.items():
        rows.setdefault(m + e, {})[j] = c
"""
    assert is_product_loop(ast.parse(packed).body[0])
    assert is_product_loop(ast.parse(triples).body[0])
    assert not is_product_loop(ast.parse(layout).body[0])
    offenders, names, found = [], set(), set()
    for path in SOURCES:
        uses, defined = qualified_uses(
            ast.parse(path.read_text(), filename=str(path)), is_product_loop)
        names |= defined
        found |= {scope for scope, _ in uses}
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses if scope not in PRODUCT_LOOPS]
    assert not offenders, f"a product loop outside poly.dot_raw: {offenders}"
    assert PRODUCT_LOOPS <= names
    assert PRODUCT_LOOPS <= found  # the detector still sees dot_raw's loop


# the one determinant and its minors: only these call the memoized
# Laplace expansion matrices._expand, which recurses; act is the one matrix
# product, and no module defines a determinant or product of bare grids
EXPANSION_CALLERS = {"FormMatrix.determinant", "FormMatrix.maximal_minors",
                     "_expand"}


def is_expand_call(node):
    """Whether the node is a call _expand(...) or x._expand(...)."""
    return isinstance(node, ast.Call) and "_expand" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_one_determinant_and_one_product():
    assert is_expand_call(ast.parse("_expand(g, r, 0, {})").body[0].value)
    assert is_expand_call(ast.parse("matrices._expand(g)").body[0].value)
    assert not is_expand_call(ast.parse("expand(g)").body[0].value)
    offenders, names = [], set()
    for path in SOURCES:
        uses, defined = qualified_uses(
            ast.parse(path.read_text(), filename=str(path)), is_expand_call)
        names |= defined
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses
                      if scope not in EXPANSION_CALLERS]
    assert not offenders, f"_expand called outside the allow-list: {offenders}"
    assert EXPANSION_CALLERS | {"act"} <= names
    grid_api = sorted(name for name in names
                      if name.rsplit(".", 1)[-1] in ("det", "mat_mul"))
    assert not grid_api, f"a second determinant or product: {grid_api}"


# the one function that lays out the monomial multiples m*f of term dicts
# as matrix columns by key shift, a key sum m + e with no product: the
# columns of the GCD's kernel search and the row-space test of a boundary
# top row
SHIFT_LAYOUTS = {"multiples_matrix"}


def is_shift_layout(node):
    """Whether the node is a for loop with a for loop inside it that builds
    a sum m + e of one name bound by each loop, and no product of two."""
    return any(ast.Add in ops and ast.Mult not in ops
               for ops in loops_across(node))


def test_one_key_shift_layout():
    layout = """
for j, (m, terms) in enumerate(pairs):
    for e, c in terms.items():
        rows.setdefault(m + e, {})[j] = c
"""
    packed = """
for ea, v in left:
    for eb, w in right:
        raw[ea + eb] = v * w + get(ea + eb, 0)
"""
    assert is_shift_layout(ast.parse(layout).body[0])
    assert not is_shift_layout(ast.parse(packed).body[0])
    offenders, names, found = [], set(), set()
    for path in SOURCES:
        uses, defined = qualified_uses(
            ast.parse(path.read_text(), filename=str(path)), is_shift_layout)
        names |= defined
        found |= {scope for scope, _ in uses}
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses if scope not in SHIFT_LAYOUTS]
    assert not offenders, \
        f"a key-shift layout outside poly.multiples_matrix: {offenders}"
    assert SHIFT_LAYOUTS <= names and SHIFT_LAYOUTS <= found


# the twisted-ideal resolution divides by its line, so it solves no dense
# system and lays out no columns: neither may come back into it
DENSE_SOLVE_CALLS = {"solve_linear", "multiples_matrix"}


def is_dense_solve_call(node):
    """Whether the node calls solve_linear or multiples_matrix, by name or
    as an attribute."""
    return isinstance(node, ast.Call) and bool(DENSE_SOLVE_CALLS & {
        getattr(node.func, "id", None), getattr(node.func, "attr", None)})


def test_twisted_ideal_resolution_runs_no_dense_solve():
    for text, found in (("solve_linear(m, b, p)", True),
                        ("poly.multiples_matrix(pairs)", True),
                        ("solve(m)", False)):
        assert is_dense_solve_call(ast.parse(text).body[0].value) == found
    path = next(p for p in SOURCES if p.name == "degeneration.py")
    uses, names = qualified_uses(ast.parse(path.read_text()),
                                 is_dense_solve_call)
    assert "build_twisted_ideal_resolution" in names
    inside = [line for scope, line in uses
              if scope.split(".")[0] == "build_twisted_ideal_resolution"]
    assert not inside, f"a dense solve in the resolution at lines {inside}"
    strata_path = next(p for p in SOURCES if p.name == "strata.py")
    found, _ = qualified_uses(ast.parse(strata_path.read_text()),
                              is_dense_solve_call)
    assert {scope for scope, _ in found} == {"_in_row_space"}  # it still sees


def _is_raw(expr):
    return isinstance(expr, ast.Attribute) and expr.attr == "raw"


def _unpacks_raw_items(target, iterable):
    """Whether a loop over iterable, .raw.items(), unpacks its keys."""
    return (isinstance(target, ast.Tuple) and target.elts
            and isinstance(target.elts[0], ast.Tuple)
            and isinstance(iterable, ast.Call)
            and getattr(iterable.func, "attr", None) == "items"
            and _is_raw(iterable.func.value))


def reads_raw_by_tuple(node):
    """Whether the node reads or builds a term dict by exponent tuple:
    .raw.get(tuple, ...), .raw[tuple], a loop or comprehension over
    .raw.items() whose key target is a tuple, or a from_raw call with a
    dict display or comprehension keyed by tuples."""
    if isinstance(node, ast.Subscript):
        return _is_raw(node.value) and isinstance(node.slice, ast.Tuple)
    if isinstance(node, ast.For):
        return _unpacks_raw_items(node.target, node.iter)
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return any(_unpacks_raw_items(g.target, g.iter)
                   for g in node.generators)
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr == "get" and _is_raw(node.func.value):
        return bool(node.args) and isinstance(node.args[0], ast.Tuple)
    return node.func.attr == "from_raw" and any(
        isinstance(arg, ast.Dict)
        and any(isinstance(k, ast.Tuple) for k in arg.keys)
        or isinstance(arg, ast.DictComp) and isinstance(arg.key, ast.Tuple)
        for arg in node.args)


def test_term_dicts_keyed_by_packed_keys_outside_poly():
    # poly keys each term by one packed int, so a read by exponent tuple
    # elsewhere, such as g.raw.get((0, 0, 0), 0), would silently read 0
    for text in ("g.raw.get((0, 0, 0), 0)", "h.raw[0, 1, 0]",
                 "[c for (a, b, c), v in f.raw.items()]",
                 "MultiPoly.from_raw(d, {(0, 1, 0): a})",
                 "MultiPoly.from_raw(d, {(0, e, 0): c for e, c in t})"):
        assert reads_raw_by_tuple(ast.parse(text).body[0].value), text
    assert reads_raw_by_tuple(ast.parse(
        "for (e0, e1, e2), c in f.raw.items():\n    pass").body[0])
    for text in ("g.raw.get(0, 0)", "h.raw[k]",
                 "[c for k, c in f.raw.items()]",
                 "MultiPoly.from_raw(d, {x1: a})",
                 "ParamScalar.from_raw(r, {(0,) * n: c})"):
        assert not reads_raw_by_tuple(ast.parse(text).body[0].value), text
    offenders = []
    for path in SOURCES:
        if path.name != "poly.py":
            uses, _ = qualified_uses(
                ast.parse(path.read_text(), filename=str(path)),
                reads_raw_by_tuple)
            offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                          for scope, line in uses]
    assert not offenders, f"term dicts read by exponent tuple: {offenders}"


BOXING_CONSTRUCTORS = {"MultiPoly", "ParamScalar"}


def is_raw_through_constructor(node):
    """Whether the node calls the MultiPoly or ParamScalar constructor, which
    boxes and unboxes every term, with a .raw attribute in its arguments:
    raw values go through from_raw."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name in BOXING_CONSTRUCTORS and any(
        isinstance(sub, ast.Attribute) and sub.attr == "raw"
        for arg in node.args + [k.value for k in node.keywords]
        for sub in ast.walk(arg))


def test_raw_values_not_passed_to_boxing_constructors():
    for text in ("MultiPoly(ring, poly.raw)",
                 "poly.MultiPoly(base, {e: c.substitute(v)"
                 " for e, c in f.raw.items()})",
                 "ParamScalar(ring, terms=s.raw)"):
        assert is_raw_through_constructor(ast.parse(text).body[0].value)
    for text in ("MultiPoly.from_raw(ring, poly.raw)",
                 "MultiPoly(domain, {m: domain.scalar(c) for m in monos})"):
        assert not is_raw_through_constructor(ast.parse(text).body[0].value)
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        uses, _ = qualified_uses(tree, is_raw_through_constructor)
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses]
    assert not offenders, f"raw values through a constructor: {offenders}"


# the abstract methods that raise NotImplementedError: cli.main does not
# catch it, so one raised on an input path would end in a traceback
NOT_IMPLEMENTED_RAISERS = {"ElementaryOp.apply"}


def raises_not_implemented(node):
    """Whether the node raises NotImplementedError, called or not."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def test_not_implemented_only_in_abstract_methods():
    for text in ("raise NotImplementedError", "raise NotImplementedError('')"):
        assert raises_not_implemented(ast.parse(text).body[0])
    assert not raises_not_implemented(ast.parse("raise ValueError").body[0])
    offenders, names = [], set()
    for path in SOURCES:
        uses, defined = qualified_uses(
            ast.parse(path.read_text(), filename=str(path)),
            raises_not_implemented)
        names |= defined
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses
                      if scope not in NOT_IMPLEMENTED_RAISERS]
    assert not offenders, f"NotImplementedError raised in: {offenders}"
    assert NOT_IMPLEMENTED_RAISERS <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_import(path):
    # imports belong at the top of the module, where readers look for them
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not lines, f"{path.name}: imports inside functions at lines {lines}"


def unused_imports(tree):
    """The names the module binds by import and never reads."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse("import os.path\nos.sep")) == []
    assert unused_imports(ast.parse("from a import b as c\nb")) == ["c"]
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not unused_imports(tree), \
        f"{path.name}: unused imports {unused_imports(tree)}"


# ---- what the bench harness relies on ----------------------------------

ROOT = Path(__file__).resolve().parent.parent


def counting_pass_methods():
    """The (class name, method names) pairs that bench/run.py's
    counting_pass wraps under the profiler, read from its source."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "counting_pass")
    return [
        (node.elts[0].id, [c.value for c in node.elts[1].elts])
        for node in ast.walk(func)
        if isinstance(node, ast.Tuple) and len(node.elts) == 2
        and isinstance(node.elts[0], ast.Name)
        and isinstance(node.elts[1], ast.Tuple)
    ]


def test_bench_counted_scalar_methods_exist():
    # the profiler counts each method by its code object, so each must
    # stay a Python function on the class
    classes = {"FieldScalar": FieldScalar, "ParamScalar": ParamScalar}
    wrapped = counting_pass_methods()
    assert sorted(name for name, _ in wrapped) == sorted(classes)
    for name, methods in wrapped:
        assert methods
        for method in methods:
            assert getattr(classes[name], method).__code__, (name, method)


def test_bench_kernels_find_boxed_term_values():
    # the field kernels time *, + and .inverse() on the term values of
    # random_matrix entries
    domain = GF(101)
    values = [c for shape in ("res0", "res1")
              for row in random_matrix(shape, domain, seed=1).entries
              for entry in row for c in entry.poly.terms.values()]
    assert values
    assert all(type(c) is FieldScalar and c.domain is domain for c in values)
    a, b = values[0], values[1]
    assert type(a * b) is FieldScalar and type(a + b) is FieldScalar
    assert a * a.inverse() == domain.one


def test_bench_span_targets_resolve():
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets] == ["SPAN_TARGETS"])
    assert targets
    for _, module_name, path in targets:
        owner = importlib.import_module(f"quarticmoduli.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), path


def private_helpers_without_caller(trees):
    """The module-level functions named _name, not dunders, that no code
    outside their own body reads, as a name or an attribute, or imports."""
    helpers, used = set(), set()
    for tree in trees:
        for node in tree.body:
            owner = node.name if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if owner and owner.startswith("_") and not owner.startswith("__"):
                helpers.add(owner)
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute)
                        else sub.name if isinstance(sub, ast.alias) else None)
                if name and name != owner:
                    used.add(name)
    return sorted(helpers - used)


def test_every_private_helper_has_a_caller():
    # a refactor that removes the last call of a helper leaves dead code
    assert private_helpers_without_caller([ast.parse(
        "def _a():\n    return _a()\ndef _b():\n    pass\n"
        "def f():\n    return _b()\n")]) == ["_a"]
    assert private_helpers_without_caller([
        ast.parse("def _a():\n    pass\n"),
        ast.parse("from .m import _a\n")]) == []
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES]
    unused = private_helpers_without_caller(trees)
    assert not unused, f"private helpers with no caller: {unused}"
