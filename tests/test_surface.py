"""The library's public surface: every public function of a package module
is reached from outside that module.

A function is reached when its name is an identifier, an imported name or
an exact string constant in another package module, a script, a perfbench
module or the acceptance tests, or a word of README.md, which is where a
function kept for library callers alone is named on purpose.  The lines of
README's Library list do not count: they name every public function, and
must name exactly those of their module.  ``cli.py`` is read as a caller
only: its functions are the commands.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hallguard"


def _names(path: Path) -> set[str]:
    """The identifiers, imported names and string constants of one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_function_is_reached():
    callers = [*PACKAGE.glob("*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    names = {path: _names(path) for path in callers}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = re.compile(r"^- `(\w+)`: (.*)$", re.MULTILINE)
    library = readme.partition("\n## Library\n")[2].split("\n## ", 1)[0]
    listed = {module: set(re.findall(r"`(\w+)`", line)) for module, line in listing.findall(library)}
    words = set(re.findall(r"\w+", readme.replace(library, listing.sub("", library))))
    unreached, public = [], {}
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "cli.py":
            continue
        public[module.stem] = [node.name for node in ast.parse(module.read_text(encoding="utf-8")).body
                               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        reached = words.union(*(found for path, found in names.items() if path != module))
        unreached += [f"{module.stem}.{name}" for name in public[module.stem] if name not in reached]
    assert unreached == []
    assert listed == {module: set(names) for module, names in public.items() if names}
