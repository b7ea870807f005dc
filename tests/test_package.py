"""The package's export list matches what it actually exposes, every name
on it is used outside the tests, the library imports only its own modules
and the standard library, its modules import each other only downward
through the layers, and README's Python quickstart runs and prints what
its comments say."""

import ast
import re
import sys
import types
from pathlib import Path

import diagalg

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


def test_all_lists_every_public_name_once_sorted():
    exported = diagalg.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {
        name for name, value in vars(diagalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public


def test_every_public_name_is_used_outside_the_tests():
    # Uses are the library's other modules (not a name's own def or class,
    # not the export list), the benchmark harness, README and docs/.
    paths = [path for path in (ROOT / "src" / "diagalg").glob("*.py")
             if path.name != "__init__.py"]
    paths += [*(ROOT / "perfbench").glob("*.py"), README,
              *(path for path in (ROOT / "docs").rglob("*") if path.is_file())]
    text = "\n".join(path.read_text() for path in paths)
    text = re.sub(r"\b(?:def|class)\s+\w+", "", text)
    unused = [name for name in diagalg.__all__
              if not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_library_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "diagalg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [(path.name, module) for module in modules
                        if module.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# The package modules each module may import.  The closed forms and the
# Groebner kernel that checks them share only ``errors``, so no closed form
# computes through its oracle; ``cli`` is unconstrained.
LAYERS = {
    "errors": set(),
    "gradedcomb": {"errors"},
    "hypersurface": {"errors", "gradedcomb"},
    "rees": {"errors", "gradedcomb"},
    "exactalg": {"errors"},
    "parsing": {"errors", "exactalg"},
    "frobenius": {"errors", "exactalg", "parsing"},
}


def test_modules_import_only_their_lower_layers():
    crossing = []
    for name, allowed in LAYERS.items():
        path = ROOT / "src" / "diagalg" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                # "from .m import x" names m; "from . import m" names m.
                imported = ([node.module] if node.module
                            else [alias.name for alias in node.names])
                crossing += [f"{name} -> {module}" for module in imported
                             if module not in allowed]
    assert crossing == []


def test_readme_quickstart_values():
    # Each expression statement of the quickstart ends in "# value", the
    # repr of what it evaluates to; text after a comma is commentary.
    block = README.read_text().split("```python", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                         namespace)
            expected = lines[stmt.lineno - 1].partition("#")[2].split(",")[0].strip()
            assert repr(value) == expected, (ast.unparse(stmt), expected)
            checked.append(expected)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == ["True", "False", "-1", "4*x2^3*x3^3", "'f_regular'", "5"]
