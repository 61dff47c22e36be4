"""Four contracts on ``src/repro``, the first three read off its syntax
trees.

* **No environment reads.**  Nothing under ``src/`` touches
  ``os.environ`` / ``os.getenv``: behaviour is a function of arguments,
  never of the process environment (the last ``REPRO_*`` knob,
  ``REPRO_POLY_BACKEND``, went in 6.0.0).
* **The algorithm layer imports nothing above it.**  Modules under
  ``repro.utils``, ``repro.he`` and ``repro.core`` import from ``repro``
  only ``utils``, ``he``, ``core`` and the policy enum ``verify`` — never
  a model (``flash``, ``ssd``, ``baselines``, ...) or service
  (``serve``, ``api``, ``net``, ...) package, at module level or inside
  a function.
* **The serving stack reaches the model layer through two doors.**
  Within ``serve``, ``net``, ``tenancy`` and ``faults`` only
  ``serve/scheduler.py`` — the device model — imports ``flash`` /
  ``ssd``, and only ``serve/report.py`` imports ``eval`` (``api`` and
  ``load`` still import engines and tables eagerly; they join the rule
  with the lazy registry).
* **No dangling document names.**  Every ``*.md`` file that a module
  under ``src/`` names — a path such as ``docs/perf.md`` from the repo
  root, or a bare file name found anywhere in the repo — exists.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
ALGORITHM_LAYER = ("utils", "he", "core")
ALLOWED_BELOW = set(ALGORITHM_LAYER) | {"verify"}
SERVING_STACK = ("serve", "net", "tenancy", "faults")
MODEL_LAYER = {"flash", "ssd", "ndp", "eval", "tfhe", "baselines"}
#: module -> the model packages it may import, each with its reason
MODEL_DOORS = {
    # placement + replay: the one place served work meets the SSD model
    "serve/scheduler.py": {"flash", "ssd"},
    # renders its tables with the paper-figure formatter, nothing else
    "serve/report.py": {"eval"},
}
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv"}
#: the repo root (``src/repro`` -> ``src`` -> root) and a markdown name
ROOT = PACKAGE.parents[1]
MARKDOWN_NAME = re.compile(r"[\w./-]*\w\.md\b")


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _imported(path: Path, tree: ast.AST):
    """Every ``(line, dotted target)`` a module imports, relative forms
    resolved against its own package."""
    package = ["repro", *path.relative_to(PACKAGE).parent.parts]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module
            if node.module is None or target == "repro":
                # ``from . import x`` / ``from repro import x``: the
                # names are the submodules
                for alias in node.names:
                    yield node.lineno, f"{target}.{alias.name}"
            else:
                yield node.lineno, target


def test_src_reads_no_environment_variable():
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ENVIRONMENT_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in ENVIRONMENT_NAMES:
                        found.append(
                            f"{path.relative_to(PACKAGE)}:{node.lineno} "
                            f"from os import {alias.name}"
                        )
    assert found == []


def test_algorithm_layer_imports_nothing_above_it():
    upward = []
    checked = 0
    for path, tree in _modules():
        if path.relative_to(PACKAGE).parts[0] not in ALGORITHM_LAYER:
            continue
        checked += 1
        for line, target in _imported(path, tree):
            parts = target.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) < 2 or parts[1] not in ALLOWED_BELOW:
                upward.append(f"{path.relative_to(PACKAGE)}:{line} imports {target}")
    assert checked > 20  # the walk found the layer
    assert upward == []


def test_serving_stack_reaches_the_model_layer_through_two_doors():
    stray = []
    used = {}
    for path, tree in _modules():
        rel = path.relative_to(PACKAGE)
        if rel.parts[0] not in SERVING_STACK:
            continue
        for line, target in _imported(path, tree):
            parts = target.split(".")
            if parts[0] != "repro" or len(parts) < 2 or parts[1] not in MODEL_LAYER:
                continue
            if parts[1] in MODEL_DOORS.get(rel.as_posix(), ()):
                used.setdefault(rel.as_posix(), set()).add(parts[1])
            else:
                stray.append(f"{rel}:{line} imports {target}")
    assert stray == []
    assert used == MODEL_DOORS  # no door left open that nothing walks through


def _dangling_markdown(text: str, have) -> list:
    """The ``*.md`` names in ``text`` that no file of ``have`` (repo-root
    relative posix paths) answers: a path must be one of them, a bare
    name the last part of one."""
    names = {path.rsplit("/", 1)[-1] for path in have}
    return [
        name
        for name in MARKDOWN_NAME.findall(text)
        if name not in (have if "/" in name else names)
    ]


def test_src_names_only_markdown_files_the_repo_has():
    have = {path.relative_to(ROOT).as_posix() for path in ROOT.rglob("*.md")}
    assert "docs/perf.md" in have  # the walk found the repo's documents
    dangling = []
    named = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for line_no, line in enumerate(path.read_text().splitlines(), 1):
            if not MARKDOWN_NAME.search(line):
                continue
            named += len(MARKDOWN_NAME.findall(line))
            dangling += [
                f"{path.relative_to(PACKAGE)}:{line_no} names {name}"
                for name in _dangling_markdown(line, have)
            ]
    assert named > 10  # and the names in src/
    assert dangling == []


def test_the_markdown_rule_tells_paths_from_bare_names():
    have = {"docs/perf.md", "README.md"}
    text = "see docs/perf.md, README.md, DESIGN.md and docs/gone.md."
    assert _dangling_markdown(text, have) == ["DESIGN.md", "docs/gone.md"]


def test_the_import_walk_resolves_relative_and_local_imports():
    """The resolver the contract rests on: relative levels, ``from .
    import``, absolute forms and function-local imports."""
    source = (
        "import repro.serve.engine\n"
        "from ..baselines.plaintext import matches_at\n"
        "from . import packing\n"
        "from .. import verify\n"
        "from repro import api\n"
        "def f():\n"
        "    from ..he.poly import RingPoly\n"
    )
    path = PACKAGE / "core" / "client.py"
    got = [target for _, target in _imported(path, ast.parse(source))]
    assert got == [
        "repro.serve.engine",
        "repro.baselines.plaintext",
        "repro.core.packing",
        "repro.verify",
        "repro.api",
        "repro.he.poly",
    ]
