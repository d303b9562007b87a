import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "aoisim"


def test_every_imported_name_is_read():
    # no linter runs on this repository: a module that imports a name and
    # never reads it (``__init__.py`` re-exports, and ``__future__``
    # imports set compiler flags) fails here
    unused = {}
    for name, tree in modules().items():
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if names := sorted(set(imported) - read):
            unused[name] = names
    assert unused == {}


def names_read():
    """Every name and attribute that the package, the demos or the benchmark reads."""
    root = SRC.parent.parent
    read = set()
    for path in [*SRC.glob("*.py"), *(root / "demos").glob("*.py"),
                 *(root / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def modules():
    """Each module of the package but ``__init__.py``, parsed."""
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def test_every_module_level_function_is_read():
    # test-only helpers live in tests: each function a module of the package
    # defines is read by name somewhere in the package, the demos or the
    # benchmark
    defined = {node.name: name for name, tree in modules().items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    read = names_read()
    assert {name: module for name, module in defined.items() if name not in read} == {}


def test_every_module_level_constant_is_read():
    # the same rule for each name a module of the package binds at module
    # level by assignment (``STATE_CAP``, ``_SLAB_STATES``, ...)
    defined = {}
    for name, tree in modules().items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((t.id, name) for target in targets for t in ast.walk(target)
                               if isinstance(t, ast.Name))
    read = names_read()
    assert {name: module for name, module in defined.items() if name not in read} == {}


def test_every_method_of_an_internal_class_is_read():
    # the same rule for the methods of each class that ``__init__.py`` does
    # not export (``RowPlan``, ``DriftEvaluator``, ...); the interpreter
    # calls dunder methods itself
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    defined = {f"{name}:{cls.name}.{node.name}": node.name
               for name, tree in modules().items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name not in exported
               for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    read = names_read()
    assert [where for where, method in defined.items() if method not in read] == []
