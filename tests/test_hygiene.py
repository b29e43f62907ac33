"""Source rules the package keeps, checked on its syntax tree.

- No bare ``except`` and no ``except Exception``: a handler names the errors
  it means to catch, so a bug cannot turn into a verdict.  The one exception
  is the top-level handler in ``cli.main``, which reports any other failure
  as an internal error (exit 3).
- No floats outside ``svg.py``: neither the name ``float`` nor a float
  literal.  Exact arithmetic stops only at the presentation layer.
- Only ``oracle.py`` itself names ``oracle`` in an import: the slow
  reference routes there are for tests, never for the production pipeline.
- Imports sit at module level, so a module's dependencies read off its
  head.  The one exception is ``cli.py``, whose subcommands (``cmd_*``)
  import the planar, witness and SVG layers lazily to keep ``check``'s
  start-up small.
- Every name a function or class body reads as an implicit global is bound
  at its module's top level (assigned, imported or defined) or is a
  builtin or a module dunder such as ``__file__``, so a missing import
  fails here, not only when its branch first runs.
- Every ``module.function`` the benchmark's tracer wraps
  (``perfbench/tracing.py``, ``TARGETS``) names a callable of the package,
  so renaming a traced entry point fails here, not in the traced bench.
"""
import ast
import builtins
import importlib
import os
import re
import symtable

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "polyext")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _source(name):
    with open(os.path.join(PACKAGE, name)) as fh:
        return fh.read()


def _tree(name):
    return ast.parse(_source(name), filename=name)


def _broad_handlers(tree):
    """(enclosing function, line) of every bare or ``except Exception``."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ExceptHandler):
            caught = node.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            if caught is None or any(
                    isinstance(n, ast.Name)
                    and n.id in ("Exception", "BaseException") for n in names):
                out.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


@pytest.mark.parametrize("name", MODULES)
def test_no_broad_exception_handlers(name):
    found = _broad_handlers(_tree(name))
    if name == "cli.py":
        assert [func for func, _ in found] == ["main"], found
    else:
        assert found == [], f"{name}: broad handlers at {found}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "svg.py"])
def test_no_floats_outside_svg(name):
    found = [node.lineno for node in ast.walk(_tree(name))
             if (isinstance(node, ast.Name) and node.id == "float")
             or (isinstance(node, ast.Constant)
                 and isinstance(node.value, float))]
    assert found == [], f"{name}: floats at lines {found}"


def _imports_oracle(tree):
    """Lines of every import that reaches ``polyext.oracle``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("oracle" in name.split(".") for name in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("name", [m for m in MODULES if m != "oracle.py"])
def test_production_never_imports_oracle(name):
    found = _imports_oracle(_tree(name))
    assert found == [], f"{name}: imports oracle at lines {found}"


def _local_imports(tree):
    """(enclosing function, line) of every import inside a function."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if func is not None and isinstance(node, (ast.Import,
                                                  ast.ImportFrom)):
            out.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


@pytest.mark.parametrize("name", MODULES)
def test_imports_at_module_level(name):
    found = _local_imports(_tree(name))
    if name == "cli.py":
        found = [(f, line) for f, line in found if not f.startswith("cmd_")]
    assert found == [], f"{name}: function-local imports at {found}"


def _unbound_reads(name):
    """(scope, name) of every implicit-global read, in any function or class
    body of the module, of a name that is neither bound at the module's top
    level nor a builtin nor a module dunder."""
    top = symtable.symtable(_source(name), name, "exec")
    known = set(dir(builtins)) | {
        sym.get_name() for sym in top.get_symbols()
        if sym.is_assigned() or sym.is_imported()}
    dunder = re.compile(r"__\w+__\Z")
    out = []

    def visit(table):
        for child in table.get_children():
            out.extend(
                (child.get_name(), sym.get_name())
                for sym in child.get_symbols()
                if sym.is_referenced() and sym.is_global()
                and not sym.is_declared_global()
                and sym.get_name() not in known
                and not dunder.match(sym.get_name()))
            visit(child)

    visit(top)
    return out


@pytest.mark.parametrize("name", MODULES)
def test_functions_read_only_bound_names(name):
    found = _unbound_reads(name)
    assert found == [], f"{name}: reads of unbound names {found}"


def _traced_targets():
    """The ``TARGETS`` literal of the benchmark's tracer, read from its
    source without importing it."""
    path = os.path.join(PACKAGE, os.pardir, os.pardir, "perfbench",
                        "tracing.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename="tracing.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_traced_targets_exist():
    missing = []
    for modname, names in _traced_targets().items():
        mod = importlib.import_module(f"polyext.{modname}")
        missing += [f"{modname}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert missing == [], f"traced but not in polyext: {missing}"
