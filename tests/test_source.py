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
# themselves and the serializers; the rest of the package reads ``raw``
TERMS_VIEW_READERS = {"MultiPoly.terms", "ParamScalar.terms",
                      "MultiPoly.serialize", "ParamScalar.as_text"}


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


# the functions that may take a modular inverse pow(v, -1, p): each one
# knows that p is set, or its values are Fractions, since over QQ
# (p = None) pow(int, -1, None) gives a float
INVERSE_POW_CALLERS = {"FieldScalar.inverse", "PrimeField.unbox",
                       "MultiPoly.divmod", "_eliminate"}


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


# the one function with a product loop: a term loop nested in a term
# loop that sums the two exponent triples and multiplies the two values.
# Every product and sum of products goes through poly.dot, so no second
# multiplication loop comes back into det, mat_mul or their callers.
PRODUCT_LOOPS = {"dot"}


def _bound_names(target):
    return {node.id for node in ast.walk(target) if isinstance(node, ast.Name)}


def is_product_loop(node):
    """Whether the node is a for loop with a for loop inside it that builds
    (a0 + b0, a1 + b1, a2 + b2) and v * w, each sum and the product of one
    name bound by each loop."""
    if not isinstance(node, ast.For):
        return False
    outer = _bound_names(node.target)
    for inner in ast.walk(node):
        if inner is node or not isinstance(inner, ast.For):
            continue
        names = _bound_names(inner.target)

        def across(expr, op):
            """Whether expr is x op y with one name bound by each loop."""
            if not (isinstance(expr, ast.BinOp) and isinstance(expr.op, op)
                    and isinstance(expr.left, ast.Name)
                    and isinstance(expr.right, ast.Name)):
                return False
            x, y = expr.left.id, expr.right.id
            return (x in outer and y in names) or (y in outer and x in names)

        body = list(ast.walk(inner))
        if any(isinstance(sub, ast.Tuple) and len(sub.elts) == 3
               and all(across(elt, ast.Add) for elt in sub.elts)
               for sub in body) \
                and any(across(sub, ast.Mult) for sub in body):
            return True
    return False


def test_one_product_loop():
    product = """
for (a0, a1, a2), v in left:
    for (b0, b1, b2), w in right:
        e = (a0 + b0, a1 + b1, a2 + b2)
        raw[e] = v * w + get(e, 0)
"""
    # multivariate_gcd lays out the shifts of a polynomial as matrix
    # columns: an exponent sum with no product of values
    layout = """
for j, ((m0, m1, m2), terms) in enumerate(shifts):
    for (e0, e1, e2), c in terms.items():
        rows.setdefault((m0 + e0, m1 + e1, m2 + e2), {})[j] = c
"""
    assert is_product_loop(ast.parse(product).body[0])
    assert not is_product_loop(ast.parse(layout).body[0])
    offenders, names = [], set()
    for path in SOURCES:
        uses, defined = qualified_uses(
            ast.parse(path.read_text(), filename=str(path)), is_product_loop)
        names |= defined
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in uses if scope not in PRODUCT_LOOPS]
    assert not offenders, f"a product loop outside poly.dot: {offenders}"
    assert PRODUCT_LOOPS <= names


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
NOT_IMPLEMENTED_RAISERS = {"ElementaryOp.apply", "VarietyExpr.poincare",
                           "VarietyExpr.dimension"}


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
    # __init__.py imports to re-export, so it is the one exempt module
    assert unused_imports(ast.parse("import os.path\nos.sep")) == []
    assert unused_imports(ast.parse("from a import b as c\nb")) == ["c"]
    if path.name == "__init__.py":
        return
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
