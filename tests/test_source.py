"""Layout rules of the package source."""

import ast
import pathlib

import fracsing

MAX_COLUMNS = 88

# Operands that are n x n or m x n arrays: the operator's kernel matrix,
# the Cholesky factor (the operator's, which the energy form keeps as its
# `factor`), the Krylov basis and any explicit energy `stiffness`.  A
# product with one of them goes through scipy's BLAS; numpy's `@` would
# run it on numpy's own OpenBLAS pool, and alternating the two pools
# costs about 8 ms a call at n = 800 (see the fracsing.green docstring).
_DENSE_NAMES = {"matrix", "stiffness", "basis", "factor"}
_DENSE_CALLS = {"cholesky", "symmetrized"}
_PRODUCT_CALLS = {"dot", "matmul", "inner", "tensordot"}


def _sources():
    src = pathlib.Path(fracsing.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    return files


def _bench_sources():
    bench = pathlib.Path(fracsing.__file__).parents[2] / "bench"
    files = sorted(bench.glob("*.py"))
    assert files
    return files


def _called(node):
    """The name a call node calls, bare or as an attribute."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _imported(node):
    """Dotted names an import statement loads, with each imported member."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def _is_dense(node, aliases):
    """Whether an expression is one of the dense operands or a view of one."""
    if isinstance(node, ast.Name):
        return node.id in _DENSE_NAMES or node.id in aliases
    if isinstance(node, ast.Attribute):
        return node.attr in _DENSE_NAMES or _is_dense(node.value, aliases)
    if isinstance(node, ast.Subscript):
        return _is_dense(node.value, aliases)
    if isinstance(node, ast.Call):
        return _called(node) in _DENSE_CALLS
    return False


def _aliases(tree):
    """Names bound to a dense operand or a view of one, to a fixed point."""
    aliases = set()
    while True:
        before = len(aliases)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_dense(node.value, aliases):
                for target in node.targets:
                    aliases.update(
                        n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                    )
        if len(aliases) == before:
            return aliases


def _numpy_products(tree, aliases):
    """(line, operands) of each `@` or numpy product call on a dense operand."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            operands = (
                (node.left, node.right)
                if isinstance(node, ast.BinOp)
                else (node.target, node.value)
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _PRODUCT_CALLS
        ):
            operands = (node.func.value, *node.args)
        else:
            continue
        if any(_is_dense(op, aliases) for op in operands):
            yield node.lineno, operands


def test_source_lines_fit_88_columns():
    long_lines = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in _sources()
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []


def test_no_numpy_product_with_a_dense_operand():
    found = []
    for path in _sources():
        tree = ast.parse(path.read_text())
        aliases = _aliases(tree)
        found.extend(
            f"{path.name}:{line}: {', '.join(ast.unparse(op) for op in operands)}"
            for line, operands in _numpy_products(tree, aliases)
        )
    assert found == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(scope):
    """Names a function binds in its own scope: its arguments, and each
    name it assigns, including loop and comprehension targets."""
    args = scope.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def _referenced(tree):
    """Names a module reads as a module-level definition, leaving out a
    definition's references to itself: a bare name that no enclosing
    function binds, or an attribute read from a name that an import
    binds, as picard.find_kstar after `from fracsing import picard`."""
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    found = set()

    def visit(node, own, bound):
        if isinstance(node, _SCOPES):
            bound = bound | _bound(node)
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = None if node.id in bound else node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = node.attr if node.value.id in imported else None
        if name is not None and name != own:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own, bound)

    for stmt in tree.body:
        visit(stmt, getattr(stmt, "name", None), frozenset())
    return found


def test_every_public_definition_has_a_caller():
    # A public function or class that only the tests call is API that
    # nothing needs: each must be referenced from code
    # outside its own definition, in src/ or bench/.
    definitions = set()
    referenced = set()
    for path in _sources() + _bench_sources():
        tree = ast.parse(path.read_text())
        referenced |= _referenced(tree)
        if path in _sources():
            definitions.update(
                (path.name, node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
            )
    assert len(definitions) > 40
    unused = sorted(f"{name}:{fn}" for name, fn in definitions if fn not in referenced)
    assert unused == []


def test_the_caller_guard_skips_local_names_and_foreign_attributes():
    # A name that an enclosing function binds, or an attribute of
    # anything but an imported name, calls no module-level definition.
    unseen = [
        "def f():\n    energy = 1\n    return energy",
        "def f(energy):\n    return energy",
        "def f(xs):\n    return [energy for energy in xs]",
        "def f(xs):\n    for energy in xs:\n        print(energy)",
        "def f():\n    energy = 1\n    return lambda: energy",
        "def f(report):\n    return report.energy",
        "def energy(n):\n    return energy(n - 1)",
    ]
    for text in unseen:
        assert "energy" not in _referenced(ast.parse(text)), text
    seen = [
        "def f(x):\n    return energy(x)",
        "from fracsing import mountainpass\nmountainpass.energy",
        "def f():\n    from fracsing import mountainpass\n    return mountainpass.energy",
        "import fracsing.mountainpass as mp\nmp.energy",
    ]
    for text in seen:
        assert "energy" in _referenced(ast.parse(text)), text


def test_no_source_imports_scipy_special():
    # Every Green value, the Dirac column included, comes from the tau rule
    # (fracsing.green), so no module needs scipy.special.
    found = [
        f"{path.name}:{node.lineno}"
        for path in _sources()
        for node in ast.walk(ast.parse(path.read_text()))
        if any(
            name == "scipy.special" or name.startswith("scipy.special.")
            for name in _imported(node)
        )
    ]
    assert found == []


def test_every_newton_step_runs_in_one_loop():
    # One Newton loop serves the fold, every minimal solution and the
    # deflated second-solution search: only picard._newton_krylov calls
    # the GMRES cycle, and mountainpass.py writes its Newton rows
    # (step, None, residual) from a system of that loop, never from a
    # loop of its own.
    callers = set()
    for path in _sources():
        for func in ast.parse(path.read_text()).body:
            callers.update(
                (path.name, getattr(func, "name", None))
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and _called(node) == "_gmres"
            )
    assert callers == {("picard.py", "_newton_krylov")}
    (path,) = (path for path in _sources() if path.name == "mountainpass.py")
    tree = ast.parse(path.read_text())
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    newton_rows = [
        loop.lineno
        for loop in loops
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and _called(node) == "append"
        and node.args
        and isinstance(node.args[0], ast.Tuple)
        and len(node.args[0].elts) == 3
        and isinstance(node.args[0].elts[1], ast.Constant)
        and node.args[0].elts[1].value is None
    ]
    assert newton_rows == []
    assert any(
        isinstance(node, ast.Call) and _called(node) == "_newton_krylov"
        for node in ast.walk(tree)
    )


def test_the_product_guard_sees_views_and_aliases():
    # Products the guard must catch: direct operands, views and aliases.
    caught = [
        "y = self.matrix @ x",
        "q = a @ self.factor @ a",
        "factor = form.factor.T\nq = base @ factor @ base",
        "upper = form.factor[:, :m]\ny = upper.T @ x",
        "upper = op.cholesky()\ny = upper @ (q * (upper.T @ x))",
        "prior = basis[: j + 1]\nh = prior @ w",
        "out = np.asarray(y) @ basis[:m]",
        "out = np.dot(form.factor, x)",
        "out = np.dot(self.stiffness, x)",
        "s = op.symmetrized() @ x",
    ]
    for text in caught:
        tree = ast.parse(text)
        assert list(_numpy_products(tree, _aliases(tree))), text
    # Vector-vector products and products of other blocks stay with numpy.
    allowed = "q = grad_image @ grad\nt = weights @ values**2\nz = g_far @ w_far"
    tree = ast.parse(allowed)
    assert list(_numpy_products(tree, _aliases(tree))) == []
