import ast
import pathlib

import qmele

# (importing module, imported module, name): the one private name a module
# may take from another, the criterion filter the optimizer's Evaluator runs
ALLOWED_PRIVATE_IMPORTS = {("estimation", "model", "_eps_h")}


def test_no_module_imports_another_modules_private_name():
    found = set()
    for path in sorted(pathlib.Path(qmele.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")}
    assert not found - ALLOWED_PRIVATE_IMPORTS
