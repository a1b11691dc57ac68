import ast
import importlib.util
from pathlib import Path

import reflectsim

PACKAGE = Path(reflectsim.__file__).parent


def test_every_module_uses_its_imports():
    # `__init__` imports to re-export; every other module imports a name to
    # use it, so a deletion that leaves an import behind fails here.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def _defined_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level names a module defines, with their lines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(name.id, node.lineno) for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return names


def test_every_module_level_name_is_used_or_exported():
    # A deletion that leaves a helper or a constant behind fails here: each
    # name a module defines is read somewhere in the package, as a name or an
    # attribute, or is public API.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = [f"{module}:{line}: {name}" for module, tree in trees.items()
              for name, line in _defined_names(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in read and name not in reflectsim.__all__]
    assert unused == []


def test_every_mutant_row_finds_its_text_once():
    # tools/mutants.py applies a row only where its old text occurs exactly
    # once; an edit that moves or repeats that text would otherwise show only
    # as "not applied" after the full mutation run.
    path = PACKAGE.parents[1] / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    counts = {(name, old): (PACKAGE / name).read_text().count(old)
              for name, old, *_ in mutants.MUTANTS}
    assert {row: n for row, n in counts.items() if n != 1} == {}
