"""Five contracts on ``src/repro``, all but the fourth read off its syntax
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
* **Every public name has a reader outside ``tests/``.**  Each public
  module-level name and each public method of a public class is read
  somewhere in ``src/``, ``examples/`` or ``benchmarks/`` outside its
  own definition: a loaded name or attribute, an import, a ``getattr``
  spelling or a dotted-name string such as the tracer's
  ``"repro.core.client:CipherMatchClient.prepare_query"``.  An
  ``__init__`` re-export or an ``__all__`` entry is not a reader.
  Names match by spelling, so a read of any ``x.search`` keeps every
  ``search`` method; the rule errs towards keeping code.  It is not
  transitive either: a name read only by an unread name passes until
  that reader goes.  The few exceptions are listed with their reasons
  in :data:`UNREAD_ALLOWED`.
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


#: the trees whose code reads a public name of ``src/repro``
READER_ROOTS = ("src/", "examples/", "benchmarks/")
#: ``"repro.core.client:CipherMatchClient.prepare_query"`` and the like
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)+")
#: calls whose second argument names an attribute: ``getattr(obj, "x")``
SPELLING_CALLS = ("getattr", "hasattr")
#: names with no reader outside ``tests/`` that stay, each with its
#: reason: ``"module.py"`` covers every name the module defines
UNREAD_ALLOWED = {
    "he/noise.py": (
        "ROADMAP item 2(3): the fresh-noise bounds test_symmetric_rows "
        "checks, to be asserted at outsource time or deleted there"
    ),
    "he/arena.py:decrypt_batch": (
        "ROADMAP item 3: the client half of the keyless adder lane"
    ),
    "he/arena.py:flags_batch": (
        "ROADMAP item 3: the client half of the keyless adder lane"
    ),
    "core/packing.py:EncryptedDatabase.invalidate_caches": (
        "cache coherence: a caller that edits ciphertexts in place must "
        "drop the arena and the byte count built from the old ones"
    ),
}


def _definitions(tree: ast.Module):
    """``(name, node)`` for each public module-level name and each public
    method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node


def _reads(path: str, tree: ast.Module):
    """``(token, line)`` for every name the module reads: loaded names and
    attributes, imported names (not an ``__init__`` re-export), the name
    a ``getattr`` / ``hasattr`` call spells out, and the parts of
    dotted-name strings (not an ``__all__`` entry, which has no dot)."""
    reexports = path.endswith("__init__.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not reexports:
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in SPELLING_CALLS:
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                yield name.value, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED_NAME.fullmatch(node.value):
                for token in re.split(r"[.:]", node.value):
                    yield token, node.lineno


def _unread_names(sources: dict, package: str = "src/repro/") -> list:
    """``"module.py:Name"`` / ``"module.py:Class.method"`` for every public
    name defined under ``package`` that no file under
    :data:`READER_ROOTS` reads outside the definition's own lines.
    ``sources`` maps repo-relative posix paths to their text."""
    trees = {path: ast.parse(text, filename=path) for path, text in sources.items()}
    readers = {}  # token -> [(path, line)], indexed once
    for path, tree in trees.items():
        if path.startswith(READER_ROOTS):
            for token, line in _reads(path, tree):
                readers.setdefault(token, []).append((path, line))
    unread = []
    for path, tree in trees.items():
        if not path.startswith(package):
            continue
        for name, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                where != path or line not in own
                for where, line in readers.get(name.rsplit(".", 1)[-1], ())
            ):
                unread.append(f"{path[len(package):]}:{name}")
    return sorted(unread)


def _repo_sources() -> dict:
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for root in READER_ROOTS
        for path in sorted((ROOT / root).rglob("*.py"))
    }


def _allowance(name: str):
    """The :data:`UNREAD_ALLOWED` entry that covers ``name``, if any."""
    module = name.split(":")[0]
    return name if name in UNREAD_ALLOWED else module if module in UNREAD_ALLOWED else None


def test_every_public_name_has_a_reader_outside_tests():
    unread = _unread_names(_repo_sources())
    assert len(UNREAD_ALLOWED) <= 10
    assert [name for name in unread if _allowance(name) is None] == []
    # and no allowance outlives the names it was written for
    assert {_allowance(name) for name in unread} - {None} == set(UNREAD_ALLOWED)


def test_the_reader_index_counts_code_outside_tests_only():
    """The resolver the reachability contract rests on, over a synthetic
    tree: own bodies, re-exports and ``__all__`` read nothing; a dotted
    string and an example do; a test does not."""
    sources = {
        "src/repro/pkg/__init__.py": (
            "from .mod import exported, listed\n"
            '__all__ = ["exported", "listed"]\n'
        ),
        "src/repro/pkg/mod.py": (
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def exported():\n"
            "    pass\n"
            "def listed():\n"
            "    pass\n"
            "def by_example():\n"
            "    pass\n"
            "def tested():\n"
            "    pass\n"
            "class Traced:\n"
            "    def method(self):\n"
            "        return self.method\n"
            "    def looked_up(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
            "CONSTANT = 1\n"
        ),
        "benchmarks/trace.py": (
            'TARGETS = ["repro.pkg.mod:Traced.method", "CONSTANT"]\n'
            'hook = getattr(object(), "looked_up", None)\n'
        ),
        "examples/demo.py": "from repro.pkg.mod import by_example\nby_example()\n",
        "tests/test_mod.py": "from repro.pkg.mod import tested\ntested()\n",
    }
    assert _unread_names(sources) == [
        "pkg/mod.py:CONSTANT",  # a bare string is no dotted name
        "pkg/mod.py:exported",
        "pkg/mod.py:listed",
        "pkg/mod.py:recursive",
        "pkg/mod.py:tested",
    ]
