"""Census of ``src/repro``: every module, every public name, every
option and every stored attribute earns its place.

Each file under ``src/``, ``benchmarks/`` and ``examples/`` is parsed
and walked once, into an :class:`Index`; four properties read the
indexes (``repro`` is never imported, so this runs in seconds):

- every module under ``src/repro`` is reachable from ``repro.__main__``
  or from a file under ``benchmarks/`` — unmeasured modules cannot
  re-accumulate;
- every public definition (module-level function, class or constant;
  method or class-level constant) is referenced somewhere under
  ``src/``, ``benchmarks/`` or ``examples/`` outside its own body;
- every defaulted parameter of a public function, method or constructor
  (a dataclass's fields are its constructor's) is set by at least one
  call under ``src/``, ``benchmarks/`` or ``examples/``, and every
  input a constructor stores is read somewhere;
- every attribute a method of a class under ``src/repro`` stores or
  augments is loaded somewhere under ``src/``, ``benchmarks/`` or
  ``examples/`` outside its own writes.  Assigning a property is a
  call, not a store.

What only ``tests/`` use — a name, an option, a stored input, a counter
the program pays for nobody — is deleted with its tests (an option
becomes its default, with the branch the other value selected), or is
listed in :data:`KEEP` with the reason it stays.  An input an
``OPTION`` line keeps is kept as written state too.

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
from dataclasses import dataclass, field
from functools import lru_cache
from operator import eq, ge
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: What stays although nothing outside ``tests/`` uses it: ``key:
#: (property, reason)``, sorted by property, then key.  A ``NAME`` is a
#: public name, ``"module:Qualified.name"`` (its options are not judged
#: either); an ``OPTION`` an option or a stored input,
#: ``"module:Qualified(param)"``, or ``"module:Record"`` for every field
#: of an input record; a ``WRITE`` a written attribute.  A reason is
#: ``reference: <test file>`` (a test drives production code through
#: it, or counts with it — then also why the write costs a delivered
#: packet nothing), ``safety: <what it detects>`` (a check or a fault
#: value on outside input), ``input record: <what the paper states
#: there>``, or the ROADMAP item / document that owns the decision.
#: Whoever uses or retires an entry deletes its line —
#: :func:`test_keep_list_is_live` fails on a stale one.
NAME, OPTION, WRITE = "name", "option", "write"
KEEP = {
    "repro.core.client:DownloadResult.edge_fraction": (
        NAME, "README: the quickstart snippet prints it"),
    "repro.obs.spans:Span.to_dict": (NAME,
        "reference: tests/obs/test_golden_views.py (span_dicts sha1; "
        "live == offline in tests/obs/test_spans.py)"),
    "repro.sim.core:Simulator.step": (NAME,
        "reference: tests/net/test_link_equivalence.py (single-steps the "
        "kernel beside the two-event reference link)"),
    "repro.sim.process:Interrupt.cause": (
        NAME, "ROADMAP item 3(b): goes or stays with Process.interrupt"),
    "repro.sim.process:Process.interrupt": (
        NAME, "ROADMAP item 3(b): the one caller of Simulator.pooled_event"),
    "repro.xia.dag:DagAddress.next_candidates": (NAME,
        "reference: tests/xia/test_dataplane.py (set-based walk the "
        "bitmask plan is held to)"),
    "repro.xia.packet:Packet.mark_visited": (NAME,
        "reference: tests/xia/test_dataplane.py (set-based walk the "
        "bitmask plan is held to)"),
    "repro.xia.packet:Packet.visited": (NAME,
        "reference: tests/xia/test_dataplane.py (set-based walk the "
        "bitmask plan is held to)"),
    "repro.xia.packet:set_packet_poison": (NAME,
        "reference: tests/transport/test_packet_pool.py (use-after-release "
        "detection over real transfers)"),
    "repro.xia.packet:set_packet_pool": (NAME,
        "reference: tests/transport/test_packet_pool.py (pooled == unpooled "
        "transfers)"),
    "repro.__main__:main(argv)": (OPTION,
        "reference: tests/experiments/test_cli.py (the CLI byte contracts "
        "run the front door in-process)"),
    "repro.core.policy:StagingObservation": (OPTION,
        "input record: what a StagingPolicy is shown — the policy contract "
        "(tests/core/test_policy_contract.py); ROADMAP item 5 emits it per "
        "decision"),
    "repro.core.profile:ChunkRecord": (OPTION,
        "input record: Table I, one row (location and fetch_rtt are the "
        "paper's NID:HID and RTT cells; tests/core/test_tracker_vnf.py)"),
    "repro.errors:TraceCorrupt(lineno)": (OPTION,
        "safety: the line a corrupt trace broke at, for whoever catches it"),
    "repro.sim.core:Event.fail(delay)": (OPTION,
        "reference: tests/sim/test_primitives.py (AnyOf, which production "
        "processes wait on, fails when a constituent fails later)"),
    "repro.sim.core:Event.succeed(delay)": (OPTION,
        "reference: tests/net/test_link_equivalence.py (the two-event "
        "reference link fires its events after a delay)"),
    "repro.sim.core:Event.succeed(priority)": (OPTION,
        "ROADMAP item 3(b): mirrors fail(priority=), which only "
        "Process.interrupt sets; goes or stays with it"),
    "repro.sim.core:Simulator.timeout(value)": (OPTION,
        "reference: tests/sim/test_primitives.py (AnyOf's fired-value dict "
        "and run(until=) are pinned through valued timeouts)"),
    "dropped_unroutable": (WRITE,
        "reference: tests/net/test_emulation_topology.py (the one record of "
        "a packet no route exists for); drop branch only"),
    "duplicate_segments": (WRITE,
        "reference: tests/transport/test_reliable.py (a lossless transfer "
        "receives no segment twice); duplicate branch only"),
}
MAX_KEEP = 21


def _keys(kind: str) -> set[str]:
    return {key for key, (prop, _) in KEEP.items() if prop == kind}


def _kept(flagged: set[str], keys: set[str] | None = None) -> set[str]:
    """The flagged options an ``OPTION`` line (one of ``keys``, or any)
    covers: its own, or every field of the record it names."""
    keys = _keys(OPTION) if keys is None else keys
    return {ident for ident in flagged
            if ident in keys or ident.partition("(")[0] in keys}


# -- The index: one walk per file --------------------------------------------

#: How a reference spells a name.  A bare name reaches module-level
#: definitions only; ``x.name`` reaches both (``module.func``), a
#: keyword argument a class-level field, and a string that spells an
#: identifier anything (``getattr(x, "name")``, field tables, the
#: referee's patch list).
BARE, DOTTED, KEYWORD, STRING = "bare", "dotted", "keyword", "string"

#: Stdlib bases whose subclasses the framework reads by reflection: it,
#: not our code, calls or looks up the members (``http.server``
#: dispatches ``do_GET``, ``socketserver`` reads ``daemon_threads``, an
#: ``Enum`` member is the value vocabulary of its type).
FRAMEWORK_BASES = {"BaseHTTPRequestHandler", "ThreadingHTTPServer", "Enum"}


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


def _is_framework_class(node: ast.ClassDef) -> bool:
    return any(_tail(base) in FRAMEWORK_BASES for base in node.bases)


def _assigned_to(stmt: ast.stmt) -> list:
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    return [stmt.target] if isinstance(stmt, ast.AnnAssign) else []


def _bound_names(stmt: ast.stmt) -> list[str]:
    return [node.id for target in _assigned_to(stmt)
            for node in ast.walk(target) if isinstance(node, ast.Name)]


class _Scope(NamedTuple):
    """Where the walk is: what a node's records depend on."""
    cls: ast.ClassDef | None = None  # innermost class
    stack: tuple = ()                # functions and lambdas since that class
    fns: tuple = ()                  # every enclosing function
    owners: tuple = ()               # "Class.method" a store is written by
    hidden: bool = False             # a framework class's member
    reexport: bool = False           # a package __init__'s import or __all__
    slots: bool = False              # inside ``__slots__ = ...``
    init: bool = False               # inside __init__ / __post_init__


class Index:
    """One file, parsed and walked once: what the four properties read.
    ``module`` is its dotted name under ``src/`` (None elsewhere)."""

    def __init__(self, tree: ast.Module, module=None, init=False):
        self.module, self.init = module, init
        self.package = module if init else (module or "").rpartition(".")[0]
        self.imports = []              # (bound, absolute module, name)
        self.loaded = set()            # names loaded
        self.defs = []                 # (prefix, name, node, scope)
        self.refs = []                 # (identifier, how, line)
        self.reads, self.state = set(), set()   # see Census
        self.bindings, self.returns = [], []    # (name, value)
        self.calls, self.assigns = [], []       # (node, scope)
        self.writes = defaultdict(set) # attribute -> {"Class.method"}
        self.setters = set()           # names with a property setter
        for stmt in tree.body:
            self._walk(stmt, _Scope(reexport=init and (
                isinstance(stmt, (ast.Import, ast.ImportFrom))
                or "__all__" in _bound_names(stmt))), "")

    def _walk(self, node, scope, level=None, member=None):
        """``level``: the qualified prefix when ``node`` is a statement
        at def level (a module or class body, an ``if``/``try`` in one);
        ``member``: the class whose body ``node`` is directly in."""
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self.loaded.add(node.id)
                self._ref(scope, node.id, BARE, node)
        elif isinstance(node, ast.Attribute):
            self._ref(scope, node.attr, DOTTED, node)
            if isinstance(node.ctx, ast.Load):
                self.reads.add(node.attr)
            elif not scope.init:
                self.state.add(node.attr)               # x.end = now
            if isinstance(node.ctx, ast.Store):
                for owner in scope.owners:
                    self.writes[node.attr].add(owner)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and node.value.isidentifier():
                self._ref(scope, node.value, STRING, node)
                if not scope.slots:
                    self.reads.add(node.value)          # getattr(x, "name")
        elif isinstance(node, ast.keyword) and node.arg:
            self._ref(scope, node.arg, KEYWORD, node)
            self.bindings.append((node.arg, node.value))
        elif isinstance(node, ast.Call):
            self.calls.append((node, scope))
        elif isinstance(node, ast.Subscript) and not isinstance(
                node.ctx, ast.Load):
            if isinstance(node.value, ast.Attribute):
                self.state.add(node.value.attr)         # x.attrs[k] = v
            if isinstance(node.ctx, ast.Store):
                self.assigns.append((node, scope))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)):
                # x.rows.append(r): a call kept only for its effect
                self.state.add(func.value.attr)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = _assigned_to(node)
            if node.value:
                self.bindings += [(_tail(t), node.value) for t in targets]
            self.assigns.append((node, scope))
            if level is not None:
                self.defs += [(level, name, node, scope)
                              for name in _bound_names(node)]
            if isinstance(node, ast.Assign) and "__slots__" in map(
                    _tail, targets):
                scope = scope._replace(slots=True)
        elif isinstance(node, (ast.For, ast.comprehension)):
            self.bindings.append((_tail(node.target), node.iter))
        elif isinstance(node, ast.Return) and node.value:
            self.returns += [(fn.name, node.value) for fn in scope.fns]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            self._import(scope, node)
        elif isinstance(node, ast.Lambda):
            scope = scope._replace(stack=(*scope.stack, node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = self._function(scope, node, level, member)
        elif isinstance(node, ast.ClassDef):
            return self._class(scope, node, level)
        elif isinstance(node, (ast.If, ast.Try)) and level is not None:
            bodies = [*node.body, *node.orelse, *getattr(node, "finalbody", [])]
            for child in ast.iter_child_nodes(node):
                self._walk(child, scope, level if child in bodies else None)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, scope)

    def _ref(self, scope, ident, how, node):
        if not scope.reexport:
            self.refs.append((ident, how, node.lineno))

    def _import(self, scope, node):
        if isinstance(node, ast.Import):
            self.imports += [((alias.asname or alias.name).split(".")[0],
                              alias.name, None) for alias in node.names]
            return
        base = node.module or ""
        if node.level:
            parent = self.package
            for _ in range(node.level - 1):
                parent = parent.rpartition(".")[0]
            base = f"{parent}.{base}" if base else parent
        for alias in node.names:
            self.imports.append((alias.asname or alias.name, base, alias.name))
            if alias.asname:
                # ``import X as _X`` hides X from every use below.
                self._ref(scope, alias.name, BARE, node)
                self.bindings.append(
                    (alias.asname, ast.Name(alias.name, ast.Load())))

    def _function(self, scope, fn, level, member):
        named = [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)]
        defaults = fn.args.defaults
        self.bindings += zip(named[len(named) - len(defaults):], defaults)
        if level is not None:
            self.defs.append((level, fn.name, fn, scope))
        owners = scope.owners
        if member is not None:
            owners += (f"{member.name}.{fn.name}",)
            if any(_tail(d) == "setter" for d in fn.decorator_list):
                self.setters.add(fn.name)
        init = isinstance(fn, ast.FunctionDef) and fn.name in (
            "__init__", "__post_init__")
        return scope._replace(stack=(*scope.stack, fn), fns=(*scope.fns, fn),
                              owners=owners, init=scope.init or init)

    def _class(self, scope, node, level):
        hidden = scope.hidden or _is_framework_class(node)
        inner = scope._replace(cls=node, stack=(), hidden=hidden)
        for child in (*node.bases, *node.keywords, *node.decorator_list):
            self._walk(child, inner)
        prefix = None if level is None else f"{level}{node.name}."
        for stmt in node.body:
            self._walk(stmt, inner, prefix, member=node)
        if level is not None:
            self.defs.append((level, node.name, node, scope))


def _modules() -> dict[str, Path]:
    """``dotted.name -> path`` of every module under ``src/repro``."""
    out = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return out


MODULES = _modules()
BENCHMARKS = sorted((ROOT / "benchmarks").rglob("*.py"))
USER_FILES = sorted(
    [*MODULES.values(), *BENCHMARKS, *(ROOT / "examples").glob("*.py")])
_MODULE_OF = {path: module for module, path in MODULES.items()}


@lru_cache(maxsize=None)
def _index(path: Path) -> Index:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return Index(tree, _MODULE_OF.get(path), path.name == "__init__.py")


# -- Module reachability -----------------------------------------------------

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
        index = _index(MODULES[base])
        reexports = {bound: (module, imported) for bound, module, imported
                     in index.imports if imported and index.init}
        if name not in reexports:
            return base
        base, name = reexports[name]
    return base


def _reachable() -> set[str]:
    seen = {"repro.__main__"}
    stack = [_index(path) for path in (MODULES["repro.__main__"], *BENCHMARKS)]
    while stack:
        index = stack.pop()
        for bound, base, name in index.imports:
            # In an ``__init__.py`` an import whose bound name the file
            # never loads is a re-export: not an edge.
            if index.init and bound not in index.loaded:
                continue
            target = _defining_module(base, name)
            # Importing a module runs its parent packages too.
            while target and target not in seen:
                seen.add(target)
                stack.append(_index(MODULES[target]))
                target = target.rpartition(".")[0]
    return seen


def test_every_module_is_reachable_from_the_cli_or_a_bench():
    unreachable = sorted(set(MODULES) - _reachable())
    assert not unreachable, (
        "modules neither `python -m repro` nor any file under benchmarks/ "
        "imports (measure them or delete them with their tests): "
        + ", ".join(unreachable))


# -- Definition census -------------------------------------------------------

@lru_cache(maxsize=None)
def _unreferenced() -> dict[str, str]:
    """``"module:Qualified.name" -> name`` of every public definition
    with no reference outside its own body."""
    refs = defaultdict(list)
    for path in USER_FILES:
        for ident, how, line in _index(path).refs:
            refs[ident].append((how, path, line))
    out = {}
    for module, path in MODULES.items():
        for prefix, name, node, scope in _index(path).defs:
            if name.startswith("_") or scope.hidden:
                continue
            first = min([node.lineno, *(
                d.lineno for d in getattr(node, "decorator_list", ()))])
            own = range(first, node.end_lineno + 1)
            skip = BARE if prefix else KEYWORD
            if not any(how != skip and (where != path or line not in own)
                       for how, where, line in refs.get(name, ())):
                out[f"{module}:{prefix}{name}"] = name
    return out


def test_every_public_definition_has_a_user_outside_tests():
    orphans = sorted(set(_unreferenced()) - _keys(NAME))
    assert not orphans, (
        "public definitions nothing under src/, benchmarks/ or examples/ "
        "references (delete them with their tests, or add a KEEP line "
        "with the reason):\n  " + "\n  ".join(orphans))


def test_keep_list_is_live():
    assert list(KEEP) == sorted(KEEP, key=lambda key: (KEEP[key][0], key)), (
        "the keep table is sorted by property, then key")
    assert len(KEEP) <= MAX_KEEP, "a short list, not a second census"
    assert all(reason.strip() for _, reason in KEEP.values())
    census = _census()
    flagged = {NAME: set(_unreferenced()), WRITE: set(_write_only_state()),
               OPTION: census.unset() | census.unread()}
    stale = sorted(key for key, (kind, _) in KEEP.items()
                   if not _kept(flagged[kind], {key}))
    assert not stale, (
        "keep-table entries that no longer exist or have gained a real user "
        "(delete the line): " + ", ".join(stale))


# -- Option census -----------------------------------------------------------

@dataclass(eq=False)
class _Signature:
    """What a call can set on one callable: a function, a method
    (``self`` dropped) or a constructor — an explicit ``__init__`` or
    the one ``@dataclass`` / ``NamedTuple`` generates from the fields."""

    key: str                    # "module:Qualified"
    public: bool
    positional: list
    named: set                  # what a keyword can set
    defaulted: set
    vararg: str | None = None
    kwarg: str | None = None
    generated: bool = False
    #: Every way it is called: (positional arguments, keywords, every
    #: positional set, every keyword set).
    calls: set = field(default_factory=set)

    def is_set(self, param):
        index = (self.positional.index(param)
                 if param in self.positional else None)
        return any(param in keywords or every_keyword
                   or (index is not None and (n > index or every_positional))
                   for n, keywords, every_positional, every_keyword
                   in self.calls)


def _signature(key, fn, public, bound):
    args = fn.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    keyword_only = [a.arg for a in args.kwonlyargs]
    defaulted = set(positional[len(positional) - len(args.defaults):])
    defaulted |= {name for name, default
                  in zip(keyword_only, args.kw_defaults) if default}
    return _Signature(key, public, positional[bound:],
                      {*positional[bound:], *keyword_only}, defaulted,
                      args.vararg and args.vararg.arg,
                      args.kwarg and args.kwarg.arg)


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


#: The parts of an expression the class it evaluates to comes from.
PARTS = {ast.Subscript: ["value"], ast.Dict: ["values"], ast.Tuple: ["elts"],
         ast.List: ["elts"], ast.Set: ["elts"], ast.IfExp: ["body", "orelse"],
         ast.BoolOp: ["values"], ast.ListComp: ["elt"], ast.SetComp: ["elt"],
         ast.GeneratorExp: ["elt"], ast.DictComp: ["value"]}


class Census:
    """Which defaulted parameters no call sets and which stored inputs
    nothing reads: the signatures the ``defs`` indexes declare (those
    keyed in ``exempt`` are not judged) against the calls, bindings and
    loads of the ``users`` (``defs`` among them when their own calls
    count).  ``reads`` are attributes loaded and identifier strings
    outside a ``__slots__``; ``state`` attributes changed after init."""

    def __init__(self, defs, users, exempt=()):
        self.exempt = set(exempt)
        self.classes, self.ctors, self.by_node = {}, {}, {}
        self.signatures, self.stored, self.forwards = [], [], []
        self.functions = defaultdict(list)  # name -> module-level functions
        self.methods = defaultdict(list)    # name -> methods
        for index in defs:
            for prefix, _, node, scope in index.defs:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    self._declare(index, prefix, node, scope.cls)
        self.reads = set().union(*(index.reads for index in users))
        self.state = set().union(*(index.state for index in users))
        self._resolve(users)
        for index in users:
            for call, scope in index.calls:
                self._record(index, call, scope)
        self._propagate()

    def _declare(self, index, prefix, node, cls):
        key = f"{index.module}:{prefix}{node.name}"
        if isinstance(node, ast.ClassDef):
            self.classes[node.name] = node
            generated = ("dataclass" in _decorator_names(node)
                         or any(_tail(b) == "NamedTuple" for b in node.bases))
            if generated and node.name not in self.ctors:
                fields = list(_fields(node))
                names = [name for name, _ in fields]
                sig = _Signature(key, not node.name.startswith("_"), names,
                                 set(names), {n for n, default in fields
                                              if default}, generated=True)
                self.ctors[node.name] = sig
                self.signatures.append(sig)
                self.stored += [(f"{key}({name})", name) for name in names]
            return
        decorators = _decorator_names(node)
        if cls is None:
            sig = _signature(key, node, not node.name.startswith("_"), 0)
            self.functions[node.name].append(sig)
        elif node.name == "__init__":
            sig = _signature(f"{index.module}:{prefix[:-1]}", node,
                             not cls.name.startswith("_"), 1)
            self.ctors[cls.name] = sig
            # ``self.attribute = parameter`` in a constructor body.
            for stmt, scope in index.assigns:
                value = getattr(stmt, "value", None)
                if (node in scope.fns and not isinstance(stmt, ast.Subscript)
                        and isinstance(value, ast.Name)
                        and value.id in sig.named):
                    self.stored += [(f"{sig.key}({value.id})", target.attr)
                                    for target in _assigned_to(stmt)
                                    if isinstance(target, ast.Attribute)
                                    and _tail(target.value) == "self"]
        else:
            public = not (node.name.startswith("_") or cls.name.startswith("_")
                          or "property" in decorators
                          or _is_framework_class(cls))
            sig = _signature(key, node, public, "staticmethod" not in decorators)
            self.methods[node.name].append(sig)
        self.signatures.append(sig)
        self.by_node[node] = sig

    # -- what the users bind -------------------------------------------------

    def _classes_of(self, expr):
        """Class names an expression may evaluate to (flow-insensitive)."""
        if isinstance(expr, (ast.Name, ast.Attribute)):
            name = _tail(expr)
            return self.alias[name] | ({name} & self.classes.keys())
        if isinstance(expr, ast.Call):
            found = set(self.returns[_tail(expr.func)])
            if isinstance(expr.func, ast.Attribute) and expr.func.attr == "get":
                found |= self._classes_of(expr.func.value)  # TABLE.get(key)
            return found
        parts = []
        for name in PARTS.get(type(expr), ()):
            part = getattr(expr, name)
            parts += part if isinstance(part, list) else [part]
        return set().union(*map(self._classes_of, parts))

    def _resolve(self, users):
        """What a name may hold, over every binding in the users and to
        a fixpoint: our classes (``direction_class = LinkDirection``, a
        table of classes, what a function returns), our functions under
        another name (``import run_all as run_fig5``), strings."""
        bindings = [pair for index in users for pair in index.bindings]
        returns = [pair for index in users for pair in index.returns]
        self.strings, self.renamed = defaultdict(set), defaultdict(set)
        self.alias, self.returns = defaultdict(set), defaultdict(set)
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

    def _display_keys(self, display):
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

    def _splat_keys(self, index, expr, stack):
        """The keywords ``**expr`` passes; None for "any".  A name is a
        dict an enclosing function builds from ``dict(k=...)``, a
        display and ``name["k"] = ...``."""
        if isinstance(expr, ast.Dict):
            return self._display_keys(expr)
        if isinstance(expr, ast.IfExp):
            either = [self._splat_keys(index, branch, stack)
                      for branch in (expr.body, expr.orelse)]
            return None if None in either else either[0] | either[1]
        if not isinstance(expr, ast.Name):
            return None
        keys, found = set(), False
        for node, scope in index.assigns:
            if not any(fn in scope.fns for fn in stack):
                continue
            if isinstance(node, ast.Subscript):
                if (_tail(node.value) == expr.id
                        and isinstance(node.slice, ast.Constant)):
                    keys.add(node.slice.value)
                continue
            if not (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == expr.id
                    for t in node.targets)):
                continue
            value = node.value
            if (isinstance(value, ast.Call) and _tail(value.func) == "dict"
                    and not value.args and all(k.arg for k in value.keywords)):
                built = {k.arg for k in value.keywords}
            elif isinstance(value, ast.Dict):
                built = self._display_keys(value)
            else:
                built = None
            if built is None:
                return None
            keys |= built
            found = True
        return keys if found else None

    def _record(self, index, call, scope):
        targets, args = self._targets(call.func, call.args, scope.cls)
        if not targets:
            return
        stack = scope.stack
        enclosing = self.by_node.get(stack[-1]) if stack else None
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
            keys = self._splat_keys(index, keyword.value, stack)
            if keys is None:
                every_keyword = True
            else:
                keywords |= keys
        made = (n, frozenset(keywords), every_positional, every_keyword)
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
        return {f"{sig.key}({param})"
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
def _census(with_tests: bool = False) -> Census:
    users = [_index(path) for path in USER_FILES]
    if with_tests:
        users += [_index(path) for path in (ROOT / "tests").rglob("*.py")]
    return Census([_index(path) for path in MODULES.values()], users,
                  exempt=_keys(NAME))


def test_every_option_is_set_and_every_stored_input_is_read():
    census = _census()
    unset, unread = census.unset(), census.unread()
    unset -= _kept(unset)
    unread -= _kept(unread)
    assert not unset, (
        "defaulted parameters no call under src/, benchmarks/ or examples/ "
        "sets (make the default a constant and delete the branch the other "
        "value selected, with its tests; or add an OPTION line to KEEP):\n  "
        + "\n  ".join(sorted(unset)))
    assert not unread, (
        "constructor inputs stored under an attribute nothing reads "
        "(drop the input):\n  " + "\n  ".join(sorted(unread)))


# -- Write-only state --------------------------------------------------------

def _write_only(defs, reads: set[str]) -> dict[str, set[str]]:
    """``attribute -> {"module:Class.method", ...}`` of what the methods
    of every class in the ``defs`` indexes store and ``reads`` lacks
    (``x.n += 1`` stores without loading).  A name some class defines a
    property setter for is a call, not stored state."""
    writers, setters = defaultdict(set), set()
    for index in defs:
        setters |= index.setters
        for attr, owners in index.writes.items():
            writers[attr] |= {f"{index.module}:{owner}" for owner in owners}
    return {attr: where for attr, where in writers.items()
            if attr not in reads and attr not in setters}


@lru_cache(maxsize=None)
def _write_only_state() -> dict[str, set[str]]:
    """Write-only attributes under ``src/repro``, less the stored inputs
    an ``OPTION`` line keeps."""
    census = _census()
    kept = {attribute for ident, attribute in census.stored
            if ident in _kept(census.unread())}
    found = _write_only([_index(path) for path in MODULES.values()],
                        census.reads)
    return {attr: where for attr, where in found.items() if attr not in kept}


def test_no_write_only_state_on_the_packet_path():
    """Every class's stores, the packet path's among them."""
    orphans = sorted(f"{attr} (written by {', '.join(sorted(where))})"
                     for attr, where in _write_only_state().items()
                     if attr not in _keys(WRITE))
    assert not orphans, (
        "attributes written and read by nothing under src/, benchmarks/ "
        "or examples/ (delete them with their writes, or add a WRITE "
        "line to KEEP naming the reader):\n  " + "\n  ".join(orphans))


# -- The checker, over sources small enough to read --------------------------

UNSET, UNREAD, WRITTEN, WRITERS = "unset", "unread", "written", "writers"


def _holds(source, *rows):
    """``(user, relation, {verdict: expected})`` rows: module ``m`` is
    ``source``, and ``user`` calls and reads it too."""
    for user, relation, expected in rows:
        indexes = [Index(ast.parse(source), "m"), Index(ast.parse(user))]
        census = Census(indexes[:1], indexes)
        writers = _write_only(indexes[:1], census.reads)
        got = {UNSET: census.unset(), UNREAD: census.unread(),
               WRITTEN: set(writers), WRITERS: writers}
        for verdict, want in expected.items():
            assert relation(got[verdict], want), (user, verdict)


def test_a_default_no_call_sets_is_flagged_until_one_does():
    _holds("def fetch(address, retries=3, *, verify=True): ...\n",
           ("fetch(a)", eq, {UNSET: {"m:fetch(retries)", "m:fetch(verify)"},
                             UNREAD: set()}),
           ("fetch(a, 5)", eq, {UNSET: {"m:fetch(verify)"}}),
           ("x.fetch(a, verify=False, retries=1)", eq, {UNSET: set()}))
    # A dataclass's fields are its constructor's parameters.
    _holds("@dataclass\nclass Config:\n"
           "    size: int\n    depth: int = 2\n    name: str = ''\n",
           ("print(Config(1, 4).size, c.depth, c.name)", eq,
            {UNSET: {"m:Config(name)"}, UNREAD: set()}))
    # Private callables are exempt, like private names.
    _holds("def _helper(x=1): ...\n",
           ("", eq, {UNSET: set(), UNREAD: set()}))


def test_an_input_stored_and_never_read_is_flagged():
    source = (
        "class Shaper:\n"
        "    def __init__(self, rate, rtt, rng):\n"
        "        self.rate = rate\n"
        "        self.reference_rtt = rtt\n"
        "        self._rng = rng\n"
        "    def draw(self):\n"
        "        return self._rng.random() < self.rate\n")
    _holds(source, ("", eq, {UNSET: set(), UNREAD: {"m:Shaper(rtt)"}}),
           ("print(s.reference_rtt)", eq, {UNSET: set(), UNREAD: set()}))
    # __slots__ names an attribute without reading it; getattr reads it.
    _holds(source.replace(
        "    def __init__", "    __slots__ = ('rate', 'reference_rtt')\n"
        "    def __init__", 1),
        ("", eq, {UNREAD: {"m:Shaper(rtt)"}}),
        ("getattr(s, 'reference_rtt')", eq, {UNREAD: set()}))


def test_options_set_out_of_a_by_name_scan_s_sight_are_not_flagged():
    params = {"m:Params(loss)", "m:Params(latency)", "m:Params(size)"}
    queue = {"m:Direction(queue_bytes)"}
    _holds(
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
        "        return replace(self, **changes)\n",
        # Nothing set: every default is flagged (Link itself passes
        # ``loss`` on) ...
        ("", eq, {UNSET: {*queue, "m:Wireless(retries)", "m:Link(loss)",
                          *params}}),
        # ... and each indirection reaches the constructor behind it: a
        # class attribute's class, **kwargs handed on, super(), a
        # table's class (inherited), an import alias, replace/with_.
        ("Link(p, loss=l)", ge, {UNSET: queue}),
        ("Link(p, queue_bytes=1)", set.isdisjoint, {UNSET: queue}),
        ("Wireless(p, l, 9, retries=2)", set.isdisjoint,
         {UNSET: {*queue, "m:Wireless(retries)"}}),
        ("system_class(n)(p, l, 9)", set.isdisjoint, {UNSET: queue}),
        ("from m import Link as L\nL(p, l)", set.isdisjoint,
         {UNSET: {"m:Link(loss)"}}),
        ("p.with_(loss=0.1)\nreplace(q, latency=1)\n"
         "row = Row(field='size')\np.with_(**{row.field: 1})",
         set.isdisjoint, {UNSET: params}),
        # A mapping that cannot be resolved sets every keyword.
        ("Params(**record)", set.isdisjoint, {UNSET: params}))


def test_a_field_changed_after_construction_is_state_not_an_option():
    user = ("span = Span(0.0)\nspan.end = 1.0\nspan.phases.append('staged')\n"
            "span.attrs['cid'] = cid\n"
            "print(span.start, span.end, span.phases, span.attrs, span.kind)\n")
    _holds(
        "@dataclass\nclass Span:\n"
        "    start: float\n"
        "    end: float = None\n"
        "    phases: list = field(default_factory=list)\n"
        "    attrs: dict = field(default_factory=dict)\n"
        "    kind: str = 'chunk'\n",
        (user, eq, {UNSET: {"m:Span(kind)"}, UNREAD: set()}),
        # Assigned in __init__/__post_init__ only: still an option.
        (user.replace("span.end = 1.0", "def __post_init__(self): self.end = 0"),
         eq, {UNSET: {"m:Span(end)", "m:Span(kind)"}}))


def test_a_counter_only_written_is_flagged_until_something_reads_it():
    # A slots string and an augmented write are no readers.
    _holds(
        "class Port:\n"
        "    __slots__ = ('sent', 'bytes', 'last')\n"
        "    def send(self, packet):\n"
        "        self.sent += 1\n"
        "        self.bytes += packet.size\n"
        "        self.last = packet\n",
        ("", eq, {WRITTEN: {"sent", "bytes", "last"}}),
        ("print(port.last, getattr(port, 'sent'))", eq, {WRITTEN: {"bytes"}}),
        ("total = port.bytes", eq, {WRITTEN: {"sent", "last"}}))


def test_a_counter_written_in_two_classes_and_read_in_neither_is_flagged():
    _holds(
        "class Scanner:\n"
        "    def __init__(self):\n"
        "        self.scans = 0\n"
        "    def scan(self):\n"
        "        self.scans += 1\n"
        "class Fetcher:\n"
        "    def fetch(self):\n"
        "        self.scans = 1\n",
        ("", eq, {WRITERS: {"scans": {
            "m:Scanner.__init__", "m:Scanner.scan", "m:Fetcher.fetch"}}}),
        ("print(fetcher.scans)", eq, {WRITTEN: set()}))


def test_assigning_a_property_is_a_call_not_stored_state():
    _holds(
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
        "        router.name = 'edge'\n",
        ("", eq, {WRITTEN: {"name"}}))


if __name__ == "__main__":
    print("unreachable modules:", *sorted(set(MODULES) - _reachable()))
    print("unreferenced definitions:", *sorted(_unreferenced()), sep="\n  ")
    plain, tested = _census(), _census(with_tests=True)
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
              "[kept]" if attr in _keys(WRITE) else "")
