"""No package module reads another module's private names.

A leading underscore marks a name as internal to its module. When another
module imports it (`from .x import _name`) or reads it (`x._name`), the
owner can no longer rename or fold it away without breaking a caller that
its own file does not show. Shared helpers belong in a public name.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "fisherprune")


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def cross_module_private_uses(path):
    """(line, text) of every private name the module at path takes from
    another package module, by import or by attribute."""
    tree = ast.parse(open(path).read(), filename=path)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("fisherprune")):
            if node.module is None or node.module == "fisherprune":
                modules |= {a.asname or a.name for a in node.names}
            found += [(node.lineno, f"from {'.' * node.level}{node.module or ''} "
                       f"import {a.name}") for a in node.names if is_private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reads_another_modules_private_names():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(paths) > 10
    uses = [f"{os.path.basename(p)}:{line}: {text}"
            for p in paths for line, text in cross_module_private_uses(p)]
    assert uses == []


def test_the_guard_sees_both_forms(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import ops, data\nfrom .modelio import _require, load\n"
                    "from .errors import require_int\n"
                    "x = ops._unroll(data.balanced, ops.conv_shape, self._own)\n")
    assert cross_module_private_uses(str(path)) == [
        (2, "from .modelio import _require"), (4, "ops._unroll")]
