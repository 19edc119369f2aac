"""README's library quick start runs as written, and prints what it says."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_values():
    """Each bare expression's value is the one its comment starts with: a
    parenthesized tuple, or the first token before a comma or a space."""
    source = _quick_start()
    lines = source.splitlines()
    scope: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), README.name, "exec"), scope)
            continue
        comment = lines[stmt.lineno - 1].partition("#")[2]
        written = ast.literal_eval(re.match(r"\s*(\([^)]*\)|[^\s,]+)", comment).group(1))
        got = eval(compile(ast.Expression(stmt.value), README.name, "eval"), scope)
        assert got == written, (ast.unparse(stmt), got, written)
        checked.append(written)
    assert checked == [(367, 1458), (True, True, 4, 4), True, 5, 4]
