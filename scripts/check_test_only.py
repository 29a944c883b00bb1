#!/usr/bin/env python
"""Fail on library code that only tests call.

Run in CI (and locally) as::

    PYTHONPATH=src python scripts/check_test_only.py

Scans every function, class and method defined in ``src/``, and every
module-level assignment there, and keeps the ones that real code
reaches.  Real code is every Python file
outside ``tests/``: ``src/``, ``scripts/``, ``examples/`` and
``benchmarks/``.  A reference is a name or attribute read in one of
those files, matched by its bare name, so a call through any object
with a same-named method counts.  Reachability starts from module-level
code and follows the references made inside each kept definition's
body (or, for an assignment, in its value), so code that only a
test-only definition calls is test-only too.  An import, or a name
listed in ``__all__``, is not a reference.

A ``src/`` module that imports a name it never reads fails as well
(outside package ``__init__`` files, whose imports are re-exports).  A
name read only in a string annotation counts as read.

A definition nothing reaches fails the check unless the allowlist
below names it with one of four reasons.  An allowlist entry fails the
check once real code reaches it or its definition is gone, so the list
can only shrink.  Every problem is printed, then the script exits
nonzero.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "scripts", "examples", "benchmarks")
TEST_DIR = "tests"

DOCUMENTED = "named as API in README.md or docs/"
ORACLE = "a reference model or invariant oracle that tests compare against"
FRAMEWORK = "called by a framework, never by name"
PINNED = "named in benchmarks/e2e, or kept by an open ROADMAP item"

# Definitions kept although only tests reach them, keyed by dotted
# module path and qualified name.
ALLOWLIST: Dict[str, str] = {
    "repro.io.load_report_json": DOCUMENTED,
    "repro.io.load_samples_csv": DOCUMENTED,
    "repro.analysis.timeseries.deltas_with_gaps": DOCUMENTED,
    "repro.experiments.smp.run_smp_trials": DOCUMENTED,
    "repro.workloads.base.MemOp": DOCUMENTED,
    "repro.hw.cache.CacheHierarchy.access": ORACLE,
    "repro.hw.cache.CacheHierarchy.contains": ORACLE,
    "repro.hw.cache.CacheLevel.occupancy": ORACLE,
    "repro.kernel.ringbuffer.RingBuffer.push": ORACLE,
    "repro.control.ledger.ControlLedger.conservation_ok": ORACLE,
    "repro.obs.live.server._Handler.do_GET": FRAMEWORK,
    "repro.obs.live.server._Handler.log_message": FRAMEWORK,
    "repro.experiments.parallel.run_trials_parallel": PINNED,
    "repro.kernel.smp.SmpCluster.max_skew_ns": PINNED,
}


@dataclass
class Definition:
    """One function, class, method or module-level assignment defined
    in ``src/``."""

    key: str
    name: str
    path: Path
    # Bare names read inside the definition's own body.
    refs: Set[str] = field(default_factory=set)


def _reads(node: ast.AST) -> Iterable[str]:
    """Bare names a node reads: loaded names and attributes."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _assigned_names(node: ast.AST) -> List[str]:
    """Names a module-level ``=`` or annotated assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        for element in ast.walk(target):
            if (isinstance(element, ast.Name)
                    and isinstance(element.ctx, ast.Store)):
                names.append(element.id)
    return [name for name in names
            if not (name.startswith("__") and name.endswith("__"))]


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _scan_file(path: Path, module: Optional[str],
               definitions: List[Definition], roots: Set[str]) -> None:
    """Record ``path``'s definitions (if ``module``) and references.

    A read belongs to the innermost recorded definition around it;
    reads outside every recorded definition are roots.
    """
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node: ast.AST, owner: Optional[Definition],
              scope: Tuple[str, ...], in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            current, child_scope = owner, scope
            # Module-level and class-level definitions are recorded;
            # ones nested in a function belong to that function.
            recorded = (module is not None and _is_def(child)
                        and (not scope or in_class))
            if recorded:
                name = child.name
                child_scope = scope + (name,)
                if not (name.startswith("__") and name.endswith("__")):
                    current = Definition(key=".".join((module,) + child_scope),
                                         name=name, path=path)
                    definitions.append(current)
            elif module is not None and not scope:
                # A module-level assignment: every name it binds has
                # the reads of its value.
                refs: Set[str] = set()
                for name in _assigned_names(child):
                    current = Definition(key=f"{module}.{name}", name=name,
                                         path=path, refs=refs)
                    definitions.append(current)
            for read in _reads(child):
                (current.refs if current is not None else roots).add(read)
            visit(child, current, child_scope,
                  recorded and isinstance(child, ast.ClassDef))

    visit(tree, None, (), False)


def _annotation_reads(tree: ast.AST) -> Iterable[str]:
    """Names read inside string annotations (``x: "CacheLevel"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                for inner in ast.walk(parsed):
                    yield from _reads(inner)


def unused_imports(path: Path) -> List[str]:
    """Names ``path`` imports (in any scope) but never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: List[str] = []
    read: Set[str] = set(_annotation_reads(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend(alias.asname or alias.name.split(".")[0]
                            for alias in node.names if alias.name != "*")
        else:
            read.update(_reads(node))
    return [name for name in imported if name not in read]


@dataclass
class Scan:
    """Definitions in ``src/`` and what real code and tests reach."""

    definitions: List[Definition]
    roots: Set[str]
    test_refs: Set[str]

    def reached(self, seeds: Iterable[str] = ()) -> Set[str]:
        """Keys of the definitions reachable from real code.

        ``seeds`` are definition keys kept regardless: their bodies
        count as real code.
        """
        seeds = set(seeds)
        by_name: Dict[str, List[Definition]] = {}
        for definition in self.definitions:
            by_name.setdefault(definition.name, []).append(definition)
        seen: Set[str] = set()
        pending: List[Tuple[str, Optional[str]]] = [
            (name, None) for name in self.roots]
        for definition in self.definitions:
            if definition.key in seeds:
                seen.add(definition.key)
                pending.extend((read, definition.key)
                               for read in definition.refs)
        while pending:
            name, caller = pending.pop()
            for definition in by_name.get(name, ()):
                if definition.key == caller or definition.key in seen:
                    continue
                seen.add(definition.key)
                pending.extend((read, definition.key)
                               for read in definition.refs)
        return seen


def scan(root: Path = ROOT) -> Scan:
    definitions: List[Definition] = []
    roots: Set[str] = set()
    src = root / "src"
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            module = _module_name(path, src) if top == "src" else None
            _scan_file(path, module, definitions, roots)
    test_refs: Set[str] = set()
    for path in sorted((root / TEST_DIR).rglob("*.py")):
        _scan_file(path, None, [], test_refs)
    return Scan(definitions, roots, test_refs)


def check(root: Path = ROOT,
          allowlist: Optional[Dict[str, str]] = None) -> List[str]:
    """Return every test-only definition and stale allowlist entry."""
    allowlist = ALLOWLIST if allowlist is None else allowlist
    result = scan(root)
    keys = {definition.key for definition in result.definitions}
    problems: List[str] = []
    for key in sorted(allowlist):
        if key not in keys:
            problems.append(f"{key}: allowlisted but no longer defined")
    for key in sorted(result.reached() & set(allowlist)):
        problems.append(f"{key}: allowlisted but real code now reaches it")
    kept = result.reached(seeds=allowlist)
    for definition in result.definitions:
        if definition.key in kept or definition.key in allowlist:
            continue
        where = definition.path.relative_to(root)
        what = ("only tests reach it" if definition.name in result.test_refs
                else "nothing references it")
        problems.append(f"{definition.key} ({where}): {what}")
    for path in sorted((root / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        where = path.relative_to(root)
        for name in unused_imports(path):
            problems.append(f"{where}: imports {name} but never reads it")
    return problems


def main() -> int:
    problems = check()
    if problems:
        for line in problems:
            print(f"test-only check: {line}", file=sys.stderr)
        return 1
    print(f"test-only check: OK ({len(ALLOWLIST)} allowlisted)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
