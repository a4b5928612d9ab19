"""Every third-party module ``src/repro`` imports is a declared dependency.

A clean ``pip install -e .[test]`` installs only what ``pyproject.toml``
declares, so an undeclared import breaks ``import repro.cli`` there even
though it works in a development environment that happens to have the
package.  The scan covers every import statement, including ones inside
functions.
"""

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: Import name -> distribution name, where the two differ.
DISTRIBUTIONS: dict[str, str] = {}


def imported_top_level_modules() -> dict[str, set[str]]:
    """Absolute imports of the package: top-level module -> importing files."""
    found: dict[str, set[str]] = {}
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    str(path.relative_to(REPO_ROOT))
                )
    return found


def declared_dependencies() -> set[str]:
    """Distribution names in ``[project] dependencies`` of pyproject.toml."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the one array this test needs
        block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
        entries = re.findall(r'"([^"]+)"', block.group(1)) if block else []
    else:
        entries = tomllib.loads(text)["project"]["dependencies"]
    return {re.split(r"[<>=!~;\[ ]", entry, maxsplit=1)[0].lower() for entry in entries}


def test_every_third_party_import_is_declared():
    stdlib = set(sys.stdlib_module_names) | {"__future__"}
    third_party = {
        module: files
        for module, files in imported_top_level_modules().items()
        if module not in stdlib and module != "repro"
    }
    declared = declared_dependencies()
    undeclared = {
        module: sorted(files)
        for module, files in third_party.items()
        if DISTRIBUTIONS.get(module, module).lower() not in declared
    }
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"


def test_the_scan_sees_the_known_dependencies():
    modules = imported_top_level_modules()
    for module in ("numpy", "scipy", "sympy"):
        assert module in modules
