"""Census of ``src/repro``: every module, every public name, every
option and every stored attribute earns its place.

Four properties, checked from the syntax trees alone (``repro`` is
never imported, so this runs in about a second):

- every module under ``src/repro`` is reachable from ``repro.__main__``
  or from a file under ``benchmarks/`` — unmeasured modules cannot
  re-accumulate;
- every public definition (module-level function, class or constant;
  method or class-level constant) is referenced somewhere under
  ``src/``, ``benchmarks/`` or ``examples/`` outside its own body — a
  name only ``tests/`` reach is either deleted with its tests or listed
  in :data:`KEEP` with the reason it stays;
- every defaulted parameter of a public function, method or constructor
  (a dataclass's fields are its constructor's) is set by at least one
  call under ``src/``, ``benchmarks/`` or ``examples/``, and every
  input a constructor stores is read somewhere — an option only
  ``tests/`` set becomes its default, with the branch and the tests
  the other value selected, or is listed in :data:`KEEP_OPTIONS`;
- every attribute a method of a class under ``src/repro`` stores or
  augments is loaded somewhere under ``src/``, ``benchmarks/`` or
  ``examples/`` outside its own writes — a counter only ``tests/`` read
  is work the program pays for nobody, and goes with its writes or is
  listed in :data:`KEEP_WRITES`.  Assigning a property is a call, not
  a store, and an input a :data:`KEEP_OPTIONS` line keeps is kept
  here too.

A package ``__init__`` re-export (its ``import`` statements and its
``__all__``) is not a use: it resolves to the defining module and
counts only if someone imports the name *through* it.  Code an
``__init__`` runs itself (``cli/__init__.py``) counts like any other.
The census is by name, not by type: ``a.close()`` keeps every ``close``.
Dunder and ``_private`` names are exempt — the runtime and the dispatch
tables (``_on_<event>``) call those.

The option census is by name too (``x.render(title=...)`` sets the
``title`` of every ``render``), but it follows what a by-name scan
cannot see: a class held in a variable, a table or a class attribute
(``direction_class(...)``, ``SYSTEMS[name](...)``), ``super().__init__``
and inherited constructors, ``from m import f as g``,
``dataclasses.replace``/``with_``, ``**kwargs`` and ``*args`` handed on
to another callable, and ``**`` of a dict built in the same function.
A ``**mapping`` it cannot resolve (a trace record, parsed arguments)
sets every keyword.  A dataclass field that is assigned, subscript-
assigned or mutated in place after construction is state, not an
option.
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

#: Options that stay although no call outside ``tests/`` sets them, and
#: stored inputs only tests read: ``"module:Qualified(param)": reason``,
#: or ``"module:Record"`` for every field of an input record.  A reason
#: is ``reference: <test file>`` (a test drives production code through
#: the option), ``safety: <what it detects>`` (a check or a fault value
#: on outside input), ``input record: <what the paper states there>``,
#: or the ROADMAP item that owns the decision.
KEEP_OPTIONS = {
    "repro.__main__:main(argv)":
        "reference: tests/experiments/test_cli.py (the CLI byte contracts "
        "run the front door in-process)",
    "repro.core.policy:StagingObservation":
        "input record: what a StagingPolicy is shown — the policy contract "
        "(tests/core/test_policy_contract.py); ROADMAP item 5 emits it per "
        "decision",
    "repro.core.profile:ChunkRecord":
        "input record: Table I, one row (location and fetch_rtt are the "
        "paper's NID:HID and RTT cells; tests/core/test_tracker_vnf.py)",
    "repro.errors:TraceCorrupt(lineno)":
        "safety: the line a corrupt trace broke at, for whoever catches it",
    "repro.sim.core:Event.fail(delay)":
        "reference: tests/sim/test_primitives.py (AnyOf, which production "
        "processes wait on, fails when a constituent fails later)",
    "repro.sim.core:Event.succeed(delay)":
        "reference: tests/net/test_link_equivalence.py (the two-event "
        "reference link fires its events after a delay)",
    "repro.sim.core:Event.succeed(priority)":
        "ROADMAP item 3(b): mirrors fail(priority=), which only "
        "Process.interrupt sets; goes or stays with it",
    "repro.sim.core:Simulator.timeout(value)":
        "reference: tests/sim/test_primitives.py (AnyOf's fired-value dict "
        "and run(until=) are pinned through valued timeouts)",
    "repro.transport.flowmodel:FlowModel.transfer_time(include_verify)":
        "ROADMAP item 6: the flow model becomes the oracle, or goes",
}
MAX_KEEP_OPTIONS = 9

#: Attributes written although nothing outside ``tests/`` reads them:
#: ``"attribute": reason``.  A reason names the reader (``reference:
#: <test file>``, a test that uses the count as an independent
#: reference) and why the write costs a delivered packet nothing, or
#: the ``safety:`` check it feeds.
KEEP_WRITES = {
    "dropped_down":
        "reference: tests/net/test_link_equivalence.py (drops by reason "
        "against the two-event reference link); link-down branch only",
    "dropped_unroutable":
        "reference: tests/net/test_emulation_topology.py (the one record of "
        "a packet no route exists for); drop branch only",
    "duplicate_segments":
        "reference: tests/transport/test_reliable.py (a lossless transfer "
        "receives no segment twice); duplicate branch only",
    "timeouts":
        "reference: tests/transport/test_reliable.py (the RTO-timer tests "
        "count expiries beside the kernel's rto events); timeout branch "
        "only",
}
MAX_KEEP_WRITES = 10


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
    for keep, limit in ((KEEP, MAX_KEEP), (KEEP_OPTIONS, MAX_KEEP_OPTIONS),
                        (KEEP_WRITES, MAX_KEEP_WRITES)):
        assert list(keep) == sorted(keep), "the keep-lists are kept sorted"
        assert len(keep) <= limit, "a short list, not a second census"
        assert all(reason.strip() for reason in keep.values())
    stale = sorted(set(KEEP) - set(_unreferenced()))
    census = _option_census()
    flagged = census.unset() | census.unread()
    stale += sorted(key for key in KEEP_OPTIONS if not _kept(flagged, key))
    stale += sorted(set(KEEP_WRITES) - set(_write_only_state()))
    assert not stale, (
        "keep-list entries that no longer exist or have gained a real user "
        "(delete the line): " + ", ".join(stale)
    )


# --------------------------------------------------------------------------
# Option census
# --------------------------------------------------------------------------

def _tail(node):
    """The last identifier of ``name`` / ``x.name``; else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _decorator_names(node):
    return {_tail(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list}


class _Signature:
    """What a call can set on one callable: a function, a method
    (``self`` dropped) or a constructor — an explicit ``__init__`` or
    the one ``@dataclass`` / ``NamedTuple`` generates from the fields."""

    def __init__(self, key, public, positional=(), keyword_only=(),
                 defaulted=(), vararg=None, kwarg=None, generated=False):
        self.key = key                  # "module:Qualified"
        self.public = public
        self.positional = list(positional)
        self.keyword_only = list(keyword_only)
        self.defaulted = set(defaulted)
        self.vararg, self.kwarg = vararg, kwarg
        self.generated = generated
        #: Every way it is called: (positional arguments, keywords,
        #: every positional set, every keyword set).
        self.calls = set()

    @classmethod
    def of_function(cls, key, fn, public, bound):
        args = fn.args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        defaulted = set(positional[len(positional) - len(args.defaults):])
        defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None}
        return cls(key, public, positional[bound:],
                   [a.arg for a in args.kwonlyargs], defaulted,
                   args.vararg and args.vararg.arg,
                   args.kwarg and args.kwarg.arg)

    @property
    def named(self):
        return {*self.positional, *self.keyword_only}

    def is_set(self, param):
        index = (self.positional.index(param)
                 if param in self.positional else None)
        return any(param in keywords or every_keyword
                   or (index is not None and (n > index or every_positional))
                   for n, keywords, every_positional, every_keyword
                   in self.calls)


def _fields(node: ast.ClassDef):
    """``(name, has default)`` of the constructor fields a dataclass or
    NamedTuple body declares."""
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.dump(stmt.annotation):
            continue
        value, default = stmt.value, stmt.value is not None
        if isinstance(value, ast.Call) and _tail(value.func) == "field":
            given = {k.arg: k.value for k in value.keywords}
            init = given.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            default = "default" in given or "default_factory" in given
        yield stmt.target.id, default


class _OptionCensus:
    """Which defaulted parameters no call sets and which stored inputs
    nothing reads.  ``defs`` is ``{module: tree}`` of the code judged;
    ``users`` are the trees whose calls and reads count (``defs``'s own
    among them, when its own calls count); signatures keyed in
    ``exempt`` are not judged."""

    def __init__(self, defs, users, exempt=()):
        self.users = list(users)
        self.exempt = set(exempt)
        self.classes = {}                   # class name -> ClassDef
        self.signatures = []
        self.by_node = {}                   # id(FunctionDef) -> signature
        self.functions = defaultdict(list)  # name -> module-level functions
        self.methods = defaultdict(list)    # name -> methods
        self.ctors = {}                     # class name -> its own ctor
        self.stored = []                    # (option id, attribute stored)
        self.reads = set()                  # attributes and strings loaded
        self.state = set()                  # attributes changed after init
        self.alias = defaultdict(set)       # name -> classes it may hold
        self.returns = defaultdict(set)     # function -> classes returned
        self.renamed = defaultdict(set)     # name -> functions it may hold
        self.strings = defaultdict(set)     # name -> strings bound to it
        self.forwards = []                  # calls handing *args/**kwargs on
        for module, tree in defs.items():
            self._collect(module, tree.body, "", None)
        self._scan_reads()
        self._resolve_bindings()
        for tree in self.users:
            self._visit(tree, None, [])
        self._propagate()

    # -- definitions ---------------------------------------------------------

    def _collect(self, module, body, prefix, cls):
        for stmt in body:
            if isinstance(stmt, (ast.If, ast.Try)):
                self._collect(module, [*stmt.body, *stmt.orelse,
                                       *getattr(stmt, "finalbody", [])],
                              prefix, cls)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(module, stmt, prefix, cls)
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(module, stmt, prefix)

    def _collect_function(self, module, fn, prefix, cls):
        decorators = _decorator_names(fn)
        if cls is None:
            sig = _Signature.of_function(
                f"{module}:{fn.name}", fn, not fn.name.startswith("_"), 0)
            self.functions[fn.name].append(sig)
        elif fn.name == "__init__":
            sig = _Signature.of_function(
                f"{module}:{prefix[:-1]}", fn,
                not cls.name.startswith("_"), 1)
            self.ctors[cls.name] = sig
            self._collect_stores(sig, fn)
        else:
            public = not (fn.name.startswith("_") or cls.name.startswith("_")
                          or "property" in decorators
                          or _is_framework_class(cls))
            sig = _Signature.of_function(
                f"{module}:{prefix}{fn.name}", fn, public,
                "staticmethod" not in decorators)
            self.methods[fn.name].append(sig)
        self.signatures.append(sig)
        self.by_node[id(fn)] = sig

    def _collect_class(self, module, node, prefix):
        qualified = prefix + node.name
        self.classes[node.name] = node
        self._collect(module, node.body, qualified + ".", node)
        generated = ("dataclass" in _decorator_names(node)
                     or any(_tail(b) == "NamedTuple" for b in node.bases))
        if generated and node.name not in self.ctors:
            fields = list(_fields(node))
            sig = _Signature(
                f"{module}:{qualified}", not node.name.startswith("_"),
                positional=[name for name, _ in fields],
                defaulted=[name for name, default in fields if default],
                generated=True)
            self.ctors[node.name] = sig
            self.signatures.append(sig)
            self.stored += [(f"{sig.key}({name})", name)
                            for name, _ in fields]

    def _collect_stores(self, sig, init):
        """``self.attribute = parameter`` in a constructor body."""
        for node in ast.walk(init):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, ast.Name) and value.id in sig.named:
                self.stored += [
                    (f"{sig.key}({value.id})", target.attr)
                    for target in targets
                    if isinstance(target, ast.Attribute)
                    and _tail(target.value) == "self"]

    # -- what the users read and bind ----------------------------------------

    def _scan_reads(self):
        for tree in self.users:
            slots = {id(n) for stmt in ast.walk(tree)
                     if isinstance(stmt, ast.Assign)
                     and any(_tail(t) == "__slots__" for t in stmt.targets)
                     for n in ast.walk(stmt)}
            inits = {id(n) for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     and fn.name in ("__init__", "__post_init__")
                     for n in ast.walk(fn)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        self.reads.add(node.attr)
                    elif id(node) not in inits:
                        self.state.add(node.attr)       # x.end = now
                elif (isinstance(node, ast.Subscript)
                      and not isinstance(node.ctx, ast.Load)
                      and isinstance(node.value, ast.Attribute)):
                    self.state.add(node.value.attr)     # x.attrs[k] = v
                elif (isinstance(node, ast.Expr)
                      and isinstance(node.value, ast.Call)
                      and isinstance(node.value.func, ast.Attribute)
                      and isinstance(node.value.func.value, ast.Attribute)):
                    # x.rows.append(r): a call kept only for its effect
                    self.state.add(node.value.func.value.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()
                      and id(node) not in slots):
                    self.reads.add(node.value)          # getattr(x, "name")

    def _classes_of(self, expr):
        """Class names an expression may evaluate to (flow-insensitive)."""
        if isinstance(expr, (ast.Name, ast.Attribute)):
            name = _tail(expr)
            found = set(self.alias.get(name, ()))
            if name in self.classes:
                found.add(name)
            return found
        if isinstance(expr, ast.Call):
            found = set(self.returns.get(_tail(expr.func), ()))
            if isinstance(expr.func, ast.Attribute) and expr.func.attr == "get":
                found |= self._classes_of(expr.func.value)  # TABLE.get(key)
            return found
        if isinstance(expr, ast.Subscript):
            parts = [expr.value]
        elif isinstance(expr, ast.Dict):
            parts = expr.values
        elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            parts = expr.elts
        elif isinstance(expr, ast.IfExp):
            parts = [expr.body, expr.orelse]
        elif isinstance(expr, ast.BoolOp):
            parts = expr.values
        elif isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            parts = [expr.elt]
        elif isinstance(expr, ast.DictComp):
            parts = [expr.value]
        else:
            parts = []
        return set().union(*map(self._classes_of, parts))

    def _resolve_bindings(self):
        """What a name may hold, over every binding in the users and to
        a fixpoint: our classes (``direction_class = LinkDirection``, a
        table of classes, what a function returns), our functions under
        another name (``import run_all as run_fig5``), strings."""
        bindings, returns = [], []
        for tree in self.users:
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    bindings += [(t, node.value) for t in node.targets]
                elif isinstance(node, ast.AnnAssign) and node.value:
                    bindings.append((node.target, node.value))
                elif isinstance(node, (ast.For, ast.comprehension)):
                    bindings.append((node.target, node.iter))
                elif isinstance(node, ast.keyword) and node.arg:
                    bindings.append((node.arg, node.value))
                elif isinstance(node, ast.ImportFrom):
                    bindings += [(a.asname, ast.Name(a.name, ast.Load()))
                                 for a in node.names if a.asname]
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    named = [*args.posonlyargs, *args.args]
                    bindings += zip(
                        (a.arg for a in named[len(named) - len(args.defaults):]),
                        args.defaults)
                    returns += [(node.name, r.value) for r in ast.walk(node)
                                if isinstance(r, ast.Return) and r.value]
        bindings = [(target if isinstance(target, str) else _tail(target), value)
                    for target, value in bindings]
        for name, value in bindings:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                self.strings[name].add(value.value)
            elif isinstance(value, ast.Name) and value.id in self.functions:
                self.renamed[name].add(value.id)
        changed = True
        while changed:
            changed = False
            for table, pairs in ((self.alias, bindings), (self.returns, returns)):
                for name, value in pairs:
                    found = self._classes_of(value)
                    if name and not found <= table[name]:
                        table[name] |= found
                        changed = True

    # -- calls ---------------------------------------------------------------

    def _ctor_targets(self, names, seen=None):
        """The constructor signatures ``Name(...)`` reaches: its own (a
        dataclass's ancestors' too), else the one it inherits."""
        seen = set() if seen is None else seen
        out = []
        for name in names:
            if name in seen or name not in self.classes:
                continue
            seen.add(name)
            own = self.ctors.get(name)
            if own is not None:
                out.append(own)
            if own is None or own.generated:
                bases = [_tail(b) for b in self.classes[name].bases]
                out += self._ctor_targets(bases, seen)
        return out

    def _targets(self, func, args, cls):
        """``(signatures, positional arguments)`` a call reaches."""
        name = _tail(func)
        if (name == "__init__" and cls and isinstance(func.value, ast.Call)
                and _tail(func.value.func) == "super"):
            return self._ctor_targets([_tail(b) for b in cls.bases]), args
        if name == "replace":
            # dataclasses.replace(obj, field=...) sets by keyword only:
            # ``self`` names the record, any other object is any record
            # with that field.
            if args and _tail(args[0]) == "self" and cls:
                return self._ctor_targets([cls.name]), []
            return [s for s in self.ctors.values() if s.generated], []
        classes = self._classes_of(func)
        if name == "cls" and isinstance(func, ast.Name) and cls:
            classes.add(cls.name)
        out = self._ctor_targets(sorted(classes))
        for spelled in (name, *self.renamed.get(name, ())):
            out += self.functions.get(spelled, [])
            if isinstance(func, ast.Attribute):
                out += self.methods.get(spelled, [])
        return out, args

    def _dict_keys(self, display):
        """Keys of a dict display: constants, and for a computed key
        (``{row.field: value}``) the strings that name is ever bound
        to; None when some key cannot be told."""
        keys = set()
        for key in display.keys:
            if isinstance(key, ast.Constant):
                keys.add(key.value)
            elif key is not None and _tail(key) in self.strings:
                keys |= self.strings[_tail(key)]
            else:
                return None
        return keys

    def _splat_keys(self, expr, stack):
        """The keywords ``**expr`` passes; None for "any"."""
        if isinstance(expr, ast.Dict):
            return self._dict_keys(expr)
        if isinstance(expr, ast.Name):
            return self._local_dict_keys(expr.id, stack)
        if isinstance(expr, ast.IfExp):
            either = [self._splat_keys(branch, stack)
                      for branch in (expr.body, expr.orelse)]
            return None if None in either else either[0] | either[1]
        return None

    def _local_dict_keys(self, name, stack):
        """Keys of a dict an enclosing function builds under ``name``
        from ``dict(k=...)``, a display and ``name["k"] = ...``."""
        keys, found = set(), False
        for fn in stack:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == name
                                for t in node.targets)):
                    value = node.value
                    if (isinstance(value, ast.Call)
                            and _tail(value.func) == "dict" and not value.args
                            and all(k.arg for k in value.keywords)):
                        built = {k.arg for k in value.keywords}
                    elif isinstance(value, ast.Dict):
                        built = self._dict_keys(value)
                    else:
                        built = None
                    if built is None:
                        return None
                    keys |= built
                    found = True
                elif (isinstance(node, ast.Subscript)
                      and isinstance(node.ctx, ast.Store)
                      and _tail(node.value) == name
                      and isinstance(node.slice, ast.Constant)):
                    keys.add(node.slice.value)
        return keys if found else None

    def _visit(self, node, cls, stack):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, child, [])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                self._visit(child, cls, [*stack, child])
            else:
                if isinstance(child, ast.Call):
                    self._record(child, cls, stack)
                self._visit(child, cls, stack)

    def _record(self, call, cls, stack):
        targets, args = self._targets(call.func, call.args, cls)
        if not targets:
            return
        enclosing = self.by_node.get(id(stack[-1])) if stack else None
        n = sum(not isinstance(a, ast.Starred) for a in args)
        keywords = {k.arg for k in call.keywords if k.arg}
        every_positional = every_keyword = False
        forward_positional = forward_keywords = False
        for arg in args:
            if isinstance(arg, ast.Starred):
                splat = _tail(arg.value)
                if splat and enclosing and splat == enclosing.vararg:
                    forward_positional = True
                else:
                    every_positional = True
        for keyword in call.keywords:
            if keyword.arg is not None:
                continue
            splat = _tail(keyword.value)
            if splat and enclosing and splat == enclosing.kwarg:
                forward_keywords = True
                continue
            keys = self._splat_keys(keyword.value, stack)
            if keys is None:
                every_keyword = True
            else:
                keywords |= keys
        made = (n, frozenset(keywords),
                every_positional, every_keyword)
        for target in targets:
            target.calls.add(made)
        if forward_positional or forward_keywords:
            self.forwards.append((enclosing, targets, made,
                                  forward_positional, forward_keywords))

    def _propagate(self):
        """``def g(*a, **kw): h(*a, **kw)``: what callers hand ``g``
        beyond its own parameters reaches ``h``."""
        changed = True
        while changed:
            changed = False
            for via, targets, (n, keywords, _, _), pos, kw in self.forwards:
                for m, given, every_positional, every_keyword in list(via.calls):
                    derived = (
                        n + max(0, m - len(via.positional)) if pos else n,
                        keywords | (given - via.named if kw else frozenset()),
                        every_positional and pos, every_keyword and kw)
                    for target in targets:
                        if derived not in target.calls:
                            target.calls.add(derived)
                            changed = True

    # -- the two answers -----------------------------------------------------

    def unset(self) -> set[str]:
        """``"module:Qualified(param)"`` of every defaulted parameter of
        a public callable that no call sets."""
        return {
            f"{sig.key}({param})"
            for sig in self.signatures
            if sig.public and sig.key not in self.exempt
            for param in sig.defaulted
            if not (sig.generated and param in self.state)
            and not sig.is_set(param)}

    def unread(self) -> set[str]:
        """Constructor inputs stored under an attribute nothing reads."""
        return {ident for ident, attribute in self.stored
                if attribute not in self.reads
                and ident.partition("(")[0] not in self.exempt}


@lru_cache(maxsize=None)
def _option_census(with_tests: bool = False) -> _OptionCensus:
    users = [_tree(path) for path in USER_FILES]
    if with_tests:
        users += [_tree(path) for path in (ROOT / "tests").rglob("*.py")]
    return _OptionCensus(
        {module: _tree(path) for module, path in MODULES.items()},
        users, exempt=KEEP)


def _kept(flagged: set[str], key: str | None = None) -> set[str]:
    """The flagged options a KEEP_OPTIONS line (``key``, or any) covers:
    its own, or every field of the record it names."""
    keys = KEEP_OPTIONS if key is None else {key}
    return {ident for ident in flagged
            if ident in keys or ident.partition("(")[0] in keys}


def test_every_option_is_set_and_every_stored_input_is_read():
    census = _option_census()
    unset, unread = census.unset(), census.unread()
    unset -= _kept(unset)
    unread -= _kept(unread)
    assert not unset, (
        "defaulted parameters no call under src/, benchmarks/ or examples/ "
        "sets (make the default a constant and delete the branch the other "
        "value selected, with its tests; or add a KEEP_OPTIONS line):\n  "
        + "\n  ".join(sorted(unset)))
    assert not unread, (
        "constructor inputs stored under an attribute nothing reads "
        "(drop the input):\n  " + "\n  ".join(sorted(unread)))


# -- the checker, over sources small enough to read --------------------------

def _census_of(source: str, user: str = "") -> tuple[set[str], set[str]]:
    """``(unset, unread)`` of module ``m`` with ``user`` as its caller."""
    trees = [ast.parse(source), ast.parse(user)]
    census = _OptionCensus({"m": trees[0]}, trees)
    return census.unset(), census.unread()


def test_a_default_no_call_sets_is_flagged_until_one_does():
    source = "def fetch(address, retries=3, *, verify=True): ...\n"
    assert _census_of(source, "fetch(a)") == (
        {"m:fetch(retries)", "m:fetch(verify)"}, set())
    assert _census_of(source, "fetch(a, 5)")[0] == {"m:fetch(verify)"}
    assert _census_of(source, "x.fetch(a, verify=False, retries=1)")[0] == set()
    # A dataclass's fields are its constructor's parameters.
    record = ("@dataclass\nclass Config:\n"
              "    size: int\n    depth: int = 2\n    name: str = ''\n")
    assert _census_of(record, "print(Config(1, 4).size, c.depth, c.name)") == (
        {"m:Config(name)"}, set())
    # Private callables are exempt, like private names.
    assert _census_of("def _helper(x=1): ...\n") == (set(), set())


def test_an_input_stored_and_never_read_is_flagged():
    source = (
        "class Shaper:\n"
        "    def __init__(self, rate, rtt, rng):\n"
        "        self.rate = rate\n"
        "        self.reference_rtt = rtt\n"
        "        self._rng = rng\n"
        "    def draw(self):\n"
        "        return self._rng.random() < self.rate\n")
    assert _census_of(source) == (set(), {"m:Shaper(rtt)"})
    assert _census_of(source, "print(s.reference_rtt)") == (set(), set())
    # __slots__ names an attribute without reading it; getattr reads it.
    slotted = source.replace(
        "    def __init__", "    __slots__ = ('rate', 'reference_rtt')\n"
        "    def __init__", 1)
    assert _census_of(slotted)[1] == {"m:Shaper(rtt)"}
    assert _census_of(slotted, "getattr(s, 'reference_rtt')")[1] == set()


def test_options_set_out_of_a_by_name_scan_s_sight_are_not_flagged():
    source = (
        "class Direction:\n"
        "    def __init__(self, port, loss=None, queue_bytes=512): ...\n"
        "class Wireless(Direction):\n"
        "    def __init__(self, *args, retries=4, **kwargs):\n"
        "        super().__init__(*args, **kwargs)\n"
        "class Plain(Direction):\n"
        "    pass\n"
        "class Link:\n"
        "    direction_class = Direction\n"
        "    def __init__(self, port, loss=None, **direction_kwargs):\n"
        "        self.forward = self.direction_class(\n"
        "            port, loss=loss, **direction_kwargs)\n"
        "SYSTEMS = {'plain': Plain}\n"
        "def system_class(name):\n"
        "    return SYSTEMS[name]\n"
        "@dataclass(frozen=True)\n"
        "class Params:\n"
        "    loss: float = 0.27\n"
        "    latency: float = 0.02\n"
        "    size: int = 64\n"
        "    def with_(self, **changes):\n"
        "        return replace(self, **changes)\n")
    # Nothing set: every default is flagged ...
    # (Link itself passes ``loss`` on).
    assert _census_of(source)[0] == {
        "m:Direction(queue_bytes)", "m:Wireless(retries)", "m:Link(loss)",
        "m:Params(loss)", "m:Params(latency)", "m:Params(size)"}
    # ... and each indirection reaches the constructor behind it.
    assert _census_of(source, "Link(p, loss=l)")[0] >= {
        "m:Direction(queue_bytes)"}           # a class attribute's class
    assert "m:Direction(queue_bytes)" not in _census_of(
        source, "Link(p, queue_bytes=1)")[0]  # **kwargs handed on
    assert _census_of(source, "Wireless(p, l, 9, retries=2)")[0] & {
        "m:Direction(queue_bytes)", "m:Wireless(retries)"} == set()  # super()
    assert "m:Direction(queue_bytes)" not in _census_of(
        source, "system_class(n)(p, l, 9)")[0]  # a table's class, inherited
    assert _census_of(source, "from m import Link as L\nL(p, l)")[0] & {
        "m:Link(loss)"} == set()              # an import alias
    assert _census_of(
        source, "p.with_(loss=0.1)\nreplace(q, latency=1)\n"
        "row = Row(field='size')\np.with_(**{row.field: 1})")[0] & {
        "m:Params(loss)", "m:Params(latency)", "m:Params(size)"} == set()
    # A mapping that cannot be resolved sets every keyword.
    assert _census_of(source, "Params(**record)")[0] & {
        "m:Params(loss)", "m:Params(latency)", "m:Params(size)"} == set()


def test_a_field_changed_after_construction_is_state_not_an_option():
    source = (
        "@dataclass\nclass Span:\n"
        "    start: float\n"
        "    end: float = None\n"
        "    phases: list = field(default_factory=list)\n"
        "    attrs: dict = field(default_factory=dict)\n"
        "    kind: str = 'chunk'\n")
    user = ("span = Span(0.0)\nspan.end = 1.0\nspan.phases.append('staged')\n"
            "span.attrs['cid'] = cid\n"
            "print(span.start, span.end, span.phases, span.attrs, span.kind)\n")
    assert _census_of(source, user) == ({"m:Span(kind)"}, set())
    # Assigned in __init__/__post_init__ only: still an option.
    user = user.replace("span.end = 1.0", "def __post_init__(self): self.end = 0")
    assert _census_of(source, user)[0] == {"m:Span(end)", "m:Span(kind)"}


# --------------------------------------------------------------------------
# Write-only state
# --------------------------------------------------------------------------

def _write_only(defs, reads: set[str]) -> dict[str, set[str]]:
    """``attribute -> {"module:Class.method", ...}`` of what the methods
    of every class in ``defs`` (``{module: tree}``) store and ``reads``
    — an option census's: attributes loaded (``x.n += 1`` stores
    without loading) and identifier strings outside a ``__slots__`` —
    lacks.  A name some class defines a property setter for is a call,
    not stored state."""
    writers, setters = defaultdict(set), set()
    for module, tree in defs.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(_tail(d) == "setter" for d in fn.decorator_list):
                    setters.add(fn.name)
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)):
                        writers[node.attr].add(f"{module}:{cls.name}.{fn.name}")
    return {attr: where for attr, where in writers.items()
            if attr not in reads and attr not in setters}


@lru_cache(maxsize=None)
def _write_only_state() -> dict[str, set[str]]:
    """Write-only attributes under ``src/repro``, less the stored inputs
    a KEEP_OPTIONS line keeps."""
    census = _option_census()
    kept = {attribute for ident, attribute in census.stored
            if ident in _kept(census.unread())}
    found = _write_only(
        {module: _tree(path) for module, path in MODULES.items()},
        census.reads)
    return {attr: where for attr, where in found.items() if attr not in kept}


def test_no_write_only_state_on_the_packet_path():
    """Every class's stores, the packet path's among them."""
    orphans = sorted(f"{attr} (written by {', '.join(sorted(where))})"
                     for attr, where in _write_only_state().items()
                     if attr not in KEEP_WRITES)
    assert not orphans, (
        "attributes written and read by nothing under src/, benchmarks/ "
        "or examples/ (delete them with their writes, or add a "
        "KEEP_WRITES line naming the reader):\n  " + "\n  ".join(orphans))


def _flagged(source: str, user: str = "") -> set[str]:
    """The write-only attributes of module ``m`` with ``user`` reading."""
    trees = [ast.parse(source), ast.parse(user)]
    return set(_write_only({"m": trees[0]}, _OptionCensus({}, trees).reads))


def test_a_counter_only_written_is_flagged_until_something_reads_it():
    source = (
        "class Port:\n"
        "    __slots__ = ('sent', 'bytes', 'last')\n"
        "    def send(self, packet):\n"
        "        self.sent += 1\n"
        "        self.bytes += packet.size\n"
        "        self.last = packet\n")
    # A slots string and an augmented write are no readers.
    assert _flagged(source) == {"sent", "bytes", "last"}
    assert _flagged(source, "print(port.last, getattr(port, 'sent'))") == {
        "bytes"}
    assert _flagged(source, "total = port.bytes") == {"sent", "last"}


def test_a_counter_written_in_two_classes_and_read_in_neither_is_flagged():
    source = (
        "class Scanner:\n"
        "    def __init__(self):\n"
        "        self.scans = 0\n"
        "    def scan(self):\n"
        "        self.scans += 1\n"
        "class Fetcher:\n"
        "    def fetch(self):\n"
        "        self.scans = 1\n")
    tree = ast.parse(source)
    assert _write_only({"m": tree}, _OptionCensus({}, [tree]).reads) == {
        "scans": {"m:Scanner.__init__", "m:Scanner.scan", "m:Fetcher.fetch"}}
    assert _flagged(source, "print(fetcher.scans)") == set()


def test_assigning_a_property_is_a_call_not_stored_state():
    source = (
        "class Router:\n"
        "    @property\n"
        "    def handler(self):\n"
        "        return None\n"
        "    @handler.setter\n"
        "    def handler(self, fn):\n"
        "        self._table[0] = fn\n"
        "class Daemon:\n"
        "    def install(self, router):\n"
        "        router.handler = self.serve\n"
        "        router.name = 'edge'\n")
    assert _flagged(source) == {"name"}


if __name__ == "__main__":
    print("unreachable modules:", *sorted(set(MODULES) - _reachable()))
    print("unreferenced definitions:", *sorted(_unreferenced()), sep="\n  ")
    plain, tested = _option_census(), _option_census(with_tests=True)
    for title, ours, theirs in (
            ("unset options", plain.unset(), tested.unset()),
            ("stored, never read", plain.unread(), tested.unread())):
        print(f"{title}: {len(ours)} ({len(ours & theirs)} untouched by "
              f"tests too, {len(_kept(ours))} kept)")
        for ident in sorted(ours):
            print("  " + ident, "" if ident in theirs else "[tests]",
                  "[kept]" if _kept({ident}) else "")
    print("written, never read:")
    for attr, where in sorted(_write_only_state().items()):
        print(f"  {attr} ({', '.join(sorted(where))})",
              "[kept]" if attr in KEEP_WRITES else "")
