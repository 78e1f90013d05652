"""Source-level guards on the package itself."""
import ast
import pathlib

import sheafbench


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, and with them any check they make
    package = pathlib.Path(sheafbench.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
