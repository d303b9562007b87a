import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "aoisim"


def test_every_imported_name_is_read():
    # no linter runs on this repository: a module that imports a name and
    # never reads it (``__init__.py`` re-exports, and ``__future__``
    # imports set compiler flags) fails here
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        names = sorted(set(imported) - read)
        if names:
            unused[path.name] = names
    assert unused == {}


def test_every_module_level_function_is_read():
    # test-only helpers live in tests: each function a module of the package
    # defines is read by name somewhere in the package, the demos or the
    # benchmark
    root = SRC.parent.parent
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[node.name] = path.name
    read = set()
    for path in [*SRC.glob("*.py"), *(root / "demos").glob("*.py"),
                 *(root / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert {name: module for name, module in defined.items() if name not in read} == {}
