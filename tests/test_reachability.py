"""Nothing in ``src/`` is there only for the tests.

A stdlib AST pass over every module under ``src/``: each module-level
function and class, and each method, must be named somewhere outside
``tests/`` — in ``src/``, ``benchmarks/`` or ``examples/``, and not only
inside its own body.  A name counts when it appears as a variable, an
attribute, or a string that is an identifier (what ``getattr`` reads);
an import, or a string of an ``__all__`` list, does not count, since
importing or exporting a name is not using it.  The match is by name, so a
method is reached if any object's attribute of that name is used: the
scan can miss dead code, never flag live code that is named.

Skipped: dunder methods (the interpreter calls them) and the asyncio
protocol callbacks (the event loop does).  Everything else the scan
finds must be deleted or listed in :data:`ALLOWED` with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTSIDE_TESTS = ("src", "benchmarks", "examples")

# Called by the event loop on an asyncio.Protocol, never by name.
PROTOCOL_CALLBACKS = frozenset(
    {
        "connection_made",
        "connection_lost",
        "data_received",
        "eof_received",
        "pause_writing",
        "resume_writing",
    }
)

# ``path:qualified name`` -> why it stays although only tests reach it:
# the caller outside the repo that needs it, or the change that retires it.
ALLOWED = {
    "src/repro/jsengine/environment.py:JSEnvironment.get_own_property_names": (
        "the Object.getOwnPropertyNames primitive the environment models "
        "(ARCHITECTURE, jsengine); the collector reads its length through "
        "own_property_count"
    ),
    "src/repro/browsers/configs.py:perturbation_by_name": (
        "how a caller names the subset of BENIGN_PERTURBATIONS it hands "
        "the gauntlet's benign traffic through its perturbations= argument"
    ),
    "src/repro/browsers/derivatives.py:tor_environment": (
        "Section 6.3's Tor Browser surface, the half of the derivative pair "
        "the simulator does not draw: a caller modelling Tor traffic "
        "builds its sessions from it"
    ),
    "src/repro/ml/metrics.py:silhouette_samples_mean": (
        "the subsampled silhouette a caller checks the k=11 fit's "
        "separation with at the paper's 205k rows, where the full "
        "pairwise one is O(n^2)"
    ),
    "src/repro/traffic/events.py:interleave_events": (
        "the README's library example replays event streams in time "
        "order through it"
    ),
    "src/repro/traffic/timeseries.py:daily_volume": (
        "per-day session volume of a deployment window, the calendar a "
        "caller reads a drift report against"
    ),
    "src/repro/traffic/timeseries.py:daily_flag_rate": (
        "per-day flag rate of a DetectionReport, what a caller plots to "
        "see a release's spike"
    ),
    "src/repro/traffic/timeseries.py:adoption_curve": (
        "a release's share by day since launch, what a caller reads to "
        "tell adoption from an attack (ARCHITECTURE, coverage)"
    ),
}


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is named in ``tree``."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names[node.value] += 1
    return names


def _without_exports(tree: ast.Module) -> ast.Module:
    """``tree`` with every ``__all__ = [...]`` list emptied."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            node.value = ast.List(elts=[], ctx=ast.Load())
    return tree


def _definitions(tree: ast.Module):
    """``(qualified name, node)`` of every function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def unreached(root: Path = ROOT) -> list:
    """``path:qualified name`` of every ``src/`` definition that nothing
    outside ``tests/`` names, allowed or not."""
    named: Counter = Counter()
    modules = []
    for top in OUTSIDE_TESTS:
        for path in sorted((root / top).rglob("*.py")):
            tree = _without_exports(ast.parse(path.read_text(), str(path)))
            named.update(_names(tree))
            if top == "src":
                modules.append((path.relative_to(root).as_posix(), tree))
    found = []
    for path, tree in modules:
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in PROTOCOL_CALLBACKS:
                continue
            if named[name] - _names(node)[name] <= 0:
                found.append(f"{path}:{qualified}")
    return found


def test_every_definition_is_reached_from_outside_the_tests():
    assert sorted(set(unreached()) - set(ALLOWED)) == []


def test_every_allowed_definition_is_still_unreached():
    """An entry whose definition is gone, or is used again, goes too."""
    assert sorted(set(ALLOWED) - set(unreached())) == []


def test_a_function_only_a_test_calls_is_found(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "__all__ = ['helper', 'used']\n\n"
        "def helper(n):\n    return helper(n - 1) if n else 0\n\n"
        "def used():\n    return 1\n\n"
        "class Thing:\n    def method(self):\n        return used()\n"
        "    def __len__(self):\n        return 0\n"
        "    def data_received(self, data):\n        pass\n"
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text(
        "from pkg.mod import Thing\nThing().method()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import helper\nhelper(2)\n"
    )
    assert unreached(tmp_path) == ["src/pkg/mod.py:helper"]
