"""Census of ``src/repro``: every module and every public name earns
its place.

Two properties, checked from the syntax trees alone (``repro`` is never
imported, so this runs in well under a second):

- every module under ``src/repro`` is reachable from ``repro.__main__``
  or from a file under ``benchmarks/`` — unmeasured modules cannot
  re-accumulate;
- every public definition (module-level function, class or constant;
  method or class-level constant) is referenced somewhere under
  ``src/``, ``benchmarks/`` or ``examples/`` outside its own body — a
  name only ``tests/`` reach is either deleted with its tests or listed
  in :data:`KEEP` with the reason it stays.

A package ``__init__`` re-export (its ``import`` statements and its
``__all__``) is not a use: it resolves to the defining module and
counts only if someone imports the name *through* it.  Code an
``__init__`` runs itself (``cli/__init__.py``) counts like any other.
The census is by name, not by type: ``a.close()`` keeps every ``close``.
Dunder and ``_private`` names are exempt — the runtime and the dispatch
tables (``_on_<event>``) call those.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Public names that stay although nothing outside ``tests/`` uses
#: them yet: ``"module:Qualified.name": reason``.  A reason is either
#: ``reference: <test file>`` (a differential test drives production
#: code through it) or the ROADMAP item / document that owns the name;
#: whoever finally uses or retires an entry deletes its line —
#: :func:`test_keep_list_is_live` fails on a stale one.
KEEP = {
    "repro.core.client:DownloadResult.edge_fraction":
        "README: the quickstart snippet prints it",
    "repro.experiments.parallel:merge_summary_sketches":
        "ROADMAP item 4: sweep-wide distributions (with SweepTask.sketches, "
        "RunSummary.sketches, merge_sketch_sets)",
    "repro.obs.spans:Span.to_dict":
        "reference: tests/obs/test_golden_views.py (span_dicts sha1; "
        "live == offline in tests/obs/test_spans.py)",
    "repro.sim.core:Simulator.step":
        "reference: tests/net/test_link_equivalence.py (single-steps the "
        "kernel beside the two-event reference link)",
    "repro.sim.process:Interrupt.cause":
        "ROADMAP item 3(b): goes or stays with Process.interrupt",
    "repro.sim.process:Process.interrupt":
        "ROADMAP item 3(b): the one caller of Simulator.pooled_event",
    "repro.transport.flowmodel:FlowModel.bytes_in":
        "ROADMAP item 6: the flow model becomes the oracle, or goes",
    "repro.transport.flowmodel:PathCharacteristics.joined":
        "ROADMAP item 6: the flow model becomes the oracle, or goes",
    "repro.transport.flowmodel:effective_wireless_goodput":
        "ROADMAP item 6: the flow model becomes the oracle, or goes",
    "repro.transport.flowmodel:residual_loss":
        "ROADMAP item 6: the flow model becomes the oracle, or goes",
    "repro.xia.dag:DagAddress.next_candidates":
        "reference: tests/xia/test_dataplane.py (set-based walk the "
        "bitmask plan is held to)",
    "repro.xia.packet:Packet.mark_visited":
        "reference: tests/xia/test_dataplane.py (set-based walk the "
        "bitmask plan is held to)",
    "repro.xia.packet:Packet.visited":
        "reference: tests/xia/test_dataplane.py (set-based walk the "
        "bitmask plan is held to)",
    "repro.xia.packet:set_packet_poison":
        "reference: tests/transport/test_packet_pool.py (use-after-release "
        "detection over real transfers)",
    "repro.xia.packet:set_packet_pool":
        "reference: tests/transport/test_packet_pool.py (pooled == unpooled "
        "transfers)",
}
MAX_KEEP = 30


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _modules() -> dict[str, Path]:
    """``dotted.name -> path`` of every module under ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()
USER_FILES = sorted(
    [*MODULES.values(), *(ROOT / "benchmarks").rglob("*.py"),
     *(ROOT / "examples").glob("*.py")]
)


def _is_init(path: Path) -> bool:
    return path.name == "__init__.py"


def _loaded_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


# --------------------------------------------------------------------------
# Module reachability
# --------------------------------------------------------------------------

def _imports(path: Path, module: str | None):
    """``(bound name, absolute module, imported name or None)`` for
    every import in a file (``module`` is the file's own dotted name,
    which its relative imports resolve against)."""
    package = module if _is_init(path) else (module or "").rpartition(".")[0]
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package
                for _ in range(node.level - 1):
                    parent = parent.rpartition(".")[0]
                base = f"{parent}.{base}" if base else parent
            for alias in node.names:
                yield alias.asname or alias.name, base, alias.name


@lru_cache(maxsize=None)
def _reexports(package: str) -> dict[str, tuple[str, str]]:
    """``name -> (module, name)`` for what a package ``__init__`` imports."""
    path = MODULES[package]
    if not _is_init(path):
        return {}
    return {bound: (base, name)
            for bound, base, name in _imports(path, package) if name}


def _defining_module(base: str, name: str | None) -> str | None:
    """The ``src/repro`` module an imported name lives in, through any
    chain of package re-exports; ``None`` for a foreign import."""
    seen = set()
    while (base, name) not in seen:
        seen.add((base, name))
        if name is not None and f"{base}.{name}" in MODULES:
            return f"{base}.{name}"
        if base not in MODULES:
            return None
        if name is None or name not in _reexports(base):
            return base
        base, name = _reexports(base)[name]
    return base


def _reachable() -> set[str]:
    seen = {"repro.__main__"}
    stack = [(MODULES["repro.__main__"], "repro.__main__")]
    stack += [(path, None) for path in (ROOT / "benchmarks").rglob("*.py")]
    while stack:
        path, module = stack.pop()
        # In an ``__init__.py`` an import whose bound name the file never
        # loads is a re-export: not an edge.
        loaded = _loaded_names(_tree(path)) if _is_init(path) else None
        for bound, base, name in _imports(path, module):
            if loaded is not None and bound not in loaded:
                continue
            target = _defining_module(base, name)
            # Importing a module runs its parent packages too.
            while target and target not in seen:
                seen.add(target)
                stack.append((MODULES[target], target))
                target = target.rpartition(".")[0]
    return seen


def test_every_module_is_reachable_from_the_cli_or_a_bench():
    unreachable = sorted(set(MODULES) - _reachable())
    assert not unreachable, (
        "modules neither `python -m repro` nor any file under benchmarks/ "
        "imports (measure them or delete them with their tests): "
        + ", ".join(unreachable)
    )


# --------------------------------------------------------------------------
# Definition census
# --------------------------------------------------------------------------

def _bound_names(stmt: ast.stmt):
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node.id


#: Stdlib bases whose subclasses the framework reads by reflection: it,
#: not our code, calls or looks up the members (``http.server``
#: dispatches ``do_GET``, ``socketserver`` reads ``daemon_threads``, an
#: ``Enum`` member is the value vocabulary of its type).
FRAMEWORK_BASES = {"BaseHTTPRequestHandler", "ThreadingHTTPServer", "Enum"}


def _is_framework_class(node: ast.ClassDef) -> bool:
    return any(
        (base.id if isinstance(base, ast.Name) else
         base.attr if isinstance(base, ast.Attribute) else "")
        in FRAMEWORK_BASES
        for base in node.bases)


def _definitions(body, prefix=""):
    """``(qualified name, name, first line, last line)`` of everything a
    module or class body defines, nested classes included."""
    for stmt in body:
        if isinstance(stmt, (ast.If, ast.Try)):
            yield from _definitions(
                [*stmt.body, *stmt.orelse, *getattr(stmt, "finalbody", [])],
                prefix)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            first = min([stmt.lineno,
                         *(d.lineno for d in stmt.decorator_list)])
            yield prefix + stmt.name, stmt.name, first, stmt.end_lineno
            if isinstance(stmt, ast.ClassDef) and not _is_framework_class(stmt):
                yield from _definitions(stmt.body, f"{prefix}{stmt.name}.")
        else:
            for name in _bound_names(stmt):
                yield prefix + name, name, stmt.lineno, stmt.end_lineno


def _is_reexport(path: Path, stmt: ast.stmt) -> bool:
    return _is_init(path) and (
        isinstance(stmt, (ast.Import, ast.ImportFrom))
        or "__all__" in _bound_names(stmt))


#: How a reference spells a name.  A bare name reaches module-level
#: definitions only; ``x.name`` reaches both (``module.func``), a
#: keyword argument a class-level field, and a string that spells an
#: identifier anything (``getattr(x, "name")``, field tables, the
#: referee's patch list).
BARE, DOTTED, KEYWORD, STRING = "bare", "dotted", "keyword", "string"


@lru_cache(maxsize=None)
def _references() -> dict[str, list[tuple[str, Path, int]]]:
    """``identifier -> [(how, file, line)]`` over src/, benchmarks/ and
    examples/."""
    refs = defaultdict(list)
    for path in USER_FILES:
        for stmt in _tree(path).body:
            if _is_reexport(path, stmt):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    # ``import X as _X`` hides X from every use below.
                    for alias in node.names:
                        if alias.asname:
                            refs[alias.name].append((BARE, path, node.lineno))
                    continue
                if isinstance(node, ast.Name):
                    if not isinstance(node.ctx, ast.Load):
                        continue  # binding a local is not a use
                    how, ident = BARE, node.id
                elif isinstance(node, ast.Attribute):
                    how, ident = DOTTED, node.attr
                elif isinstance(node, ast.keyword) and node.arg:
                    how, ident = KEYWORD, node.arg
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    how, ident = STRING, node.value
                else:
                    continue
                refs[ident].append((how, path, node.lineno))
    return refs


@lru_cache(maxsize=None)
def _unreferenced() -> dict[str, str]:
    """``"module:Qualified.name" -> name`` of every public definition
    with no reference outside its own body."""
    refs = _references()
    out = {}
    for module, path in MODULES.items():
        for qualified, name, first, last in _definitions(_tree(path).body):
            if name.startswith("_"):
                continue
            skip = KEYWORD if qualified == name else BARE
            if not any(how != skip
                       and (ref_path != path or not first <= line <= last)
                       for how, ref_path, line in refs.get(name, ())):
                out[f"{module}:{qualified}"] = name
    return out


def test_every_public_definition_has_a_user_outside_tests():
    orphans = sorted(set(_unreferenced()) - set(KEEP))
    assert not orphans, (
        "public definitions nothing under src/, benchmarks/ or examples/ "
        "references (delete them with their tests, or add a KEEP line "
        "with the reason):\n  " + "\n  ".join(orphans)
    )


def test_keep_list_is_live():
    assert list(KEEP) == sorted(KEEP), "KEEP is kept sorted"
    assert len(KEEP) <= MAX_KEEP, "KEEP is a short list, not a second census"
    assert all(reason.strip() for reason in KEEP.values())
    stale = sorted(set(KEEP) - set(_unreferenced()))
    assert not stale, (
        "KEEP entries that no longer exist or have gained a real user "
        "(delete the line): " + ", ".join(stale)
    )


if __name__ == "__main__":
    print("unreachable modules:", *sorted(set(MODULES) - _reachable()))
    print("unreferenced definitions:", *sorted(_unreferenced()), sep="\n  ")
