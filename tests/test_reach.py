"""Every public function, class and method of the package is named by code
that a verdict or an acceptance criterion runs: the package itself (its
``__init__`` only re-exports), the acceptance criteria, the benchmark's
instrumentation and workloads, or the entry points in ``pyproject.toml``.
A name that only other tests, demos or its own definition use is flagged.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heatlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = [*MODULES, ROOT / "tests" / "test_acceptance.py"]
# the benchmark also names what it wraps by strings, setattr-style
BENCHMARK = [ROOT / "perfbench" / "instrument.py",
             ROOT / "perfbench" / "workloads.py"]
# the golden-section distance stays as the tests' oracle of the grid
# distance until one exact distance replaces both (ROADMAP item 2)
EXEMPT = {"parabolic_distance"}


def _public(tree):
    """The qualified and bare name of each public module-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node.name
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) \
                    and not item.name.startswith("_"):
                yield f"{node.name}.{item.name}", item.name


def _named(tree, strings):
    """The identifiers that a module's code refers to; with ``strings``,
    also its string constants that are identifiers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def test_every_public_name_is_reached():
    named = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for path in READERS + BENCHMARK:
        named.update(_named(ast.parse(path.read_text()), path in BENCHMARK))
    unreached = [f"{path.name}: {qualified}" for path in MODULES
                 for qualified, name in _public(ast.parse(path.read_text()))
                 if name not in named and name not in EXEMPT]
    assert not unreached, "named by no verdict path or criterion: " \
        + ", ".join(unreached)
