"""The package's export list matches what it actually exposes, and README's
Python quickstart runs and prints what its comments say."""

import ast
import types
from pathlib import Path

import diagalg

README = Path(__file__).parent.parent / "README.md"


def test_all_lists_every_public_name_once_sorted():
    exported = diagalg.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {
        name for name, value in vars(diagalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public


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
