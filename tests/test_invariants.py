import ast
from pathlib import Path

import toruscurves


def test_no_assert_statements_in_package():
    # `python -O` strips assert, so internal invariants must raise explicitly
    found = []
    for path in sorted(Path(toruscurves.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
