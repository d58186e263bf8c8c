"""The traced pass: timing shims on public layer boundaries.

Everything here measures ``src/repro`` from outside.  ``Tracer.install``
replaces a table of public methods with timing shims (and must run
*before* the scenario is built: sessions and hosts register bound
methods at construction) and ``uninstall`` puts every original back.
Shims keep a parent stack, so each aggregate is ``(boundary, parent
boundary) -> calls, inclusive_s, self_s`` where self time is inclusive
time minus the part covered by child boundaries.

Callbacks the kernel invokes directly (``tx-done``, ``arrival``,
``cpu``, process wake-ups) cross no public method, so the tracer also
installs the repo's public ``SimProfiler`` on every scenario it sees
built; a thin subclass splits each handler's total into self time and
the part already covered by shims underneath it.  ``BOUNDARIES``,
``SUBSCRIBER_LAYERS`` and ``HANDLER_LAYERS`` are the one table mapping
each shim and each profiler key to a layer (= package under
``src/repro``).
"""

from __future__ import annotations

import importlib
import inspect
import re
from time import perf_counter

from repro.sim.process import Process
from repro.sim.profiler import SimProfiler

#: ``(owner, attribute, layer)``: every public boundary that gets a
#: timing shim.  Owners are dotted paths to a module or a class.
BOUNDARIES = (
    ("repro.experiments.runner", "run_download", "experiments"),
    ("repro.experiments.scenario.TestbedScenario", "__init__", "experiments"),
    ("repro.experiments.scenario.TestbedScenario", "publish_default_content",
     "experiments"),
    ("repro.sim.core.Simulator", "run", "sim"),
    ("repro.net.link.Port", "send", "net"),
    ("repro.net.link.Port", "deliver", "net"),
    ("repro.net.link.LinkDirection", "enqueue", "net"),
    ("repro.net.nodes.Device", "receive", "net"),
    ("repro.xia.router.XIARouter", "handle_packet", "xia"),
    ("repro.xia.router.XIARouter", "send", "xia"),
    ("repro.xia.router.AccessPoint", "handle_packet", "xia"),
    ("repro.transport.reliable.SenderSession", "on_packet", "transport"),
    ("repro.transport.reliable.ReceiverSession", "on_packet", "transport"),
    ("repro.transport.reliable.TransportEndpoint", "start_send", "transport"),
    ("repro.transport.reliable.TransportEndpoint", "open_receiver",
     "transport"),
    ("repro.transport.reliable.TransportEndpoint", "migrate_receivers",
     "transport"),
    ("repro.transport.chunkfetch.ChunkFetcher", "fetch", "transport"),
    ("repro.transport.chunkfetch.CacheDaemon", "handle_request", "transport"),
    ("repro.xcache.store.ContentStore", "put", "xcache"),
    ("repro.xcache.store.ContentStore", "get", "xcache"),
    ("repro.xcache.store.ContentStore", "has", "xcache"),
    ("repro.xcache.store.ContentStore", "peek", "xcache"),
    ("repro.xcache.store.ContentStore", "remove", "xcache"),
    ("repro.core.coordinator.StagingCoordinator", "tick", "core"),
    ("repro.core.coordinator.StagingCoordinator", "observe", "core"),
    ("repro.core.coordinator.StagingCoordinator", "notify_chunk_delivered",
     "core"),
    ("repro.core.vnf.StagingVNF", "handle_packet", "core"),
    ("repro.obs.bus.EventBus", "publish", "obs.bus"),
    ("repro.obs.stream.TelemetryHub", "publish", "obs.hub"),
    ("repro.obs.flight.GaugeSampler", "sample_now", "obs.gauges"),
)

#: Classes whose every public method is a boundary (and, for the
#: policy ABC, every subclass's override).
WHOLE_CLASSES = (
    ("repro.mobility.association.AssociationController", "mobility", False),
    ("repro.core.policy.StagingPolicy", "core", True),
)

#: Bus handlers are shimmed as they subscribe, keyed by owner class.
SUBSCRIBER_LAYERS = {
    "MetricsCollector": "obs.collector",
    "TraceExporter": "obs.trace",
    "SpanBuilder": "obs.spans",
    "InvariantAuditor": "obs.audit",
    "WideEventBuilder": "obs.wide",
    "SketchRecorder": "obs.sketches",
    "GaugeFeed": "obs.hub",
}

#: Profiler key → layer, for the callbacks the kernel invokes itself.
#: Keys not listed (timeouts resuming whichever process waited,
#: process bootstrap, condition events) stay with the kernel.
HANDLER_LAYERS = {
    "event:tx-done": "net",
    "event:arrival": "net",
    "event:cpu": "net",
    "event:request": "net",
    "event:link-down-flush": "net",
    "event:sender-wakeup": "transport",
    "event:send-done": "transport",
    "event:recv-start": "transport",
    "event:recv-done": "transport",
    "event:migrate-ack": "transport",
    "process:_sender_loop": "transport",
    "process:_rto_watch": "transport",
    "process:_resume_after_migration": "transport",
    "process:migrate": "transport",
    "process:fetch": "transport",
    "event:wait-attached": "mobility",
    "process:associate": "mobility",
    "process:_periodic_loop": "mobility",
    "process:_edge_loop": "mobility",
    "process:download": "core",
    "process:xfetch_chunk_star": "core",
    "process:_stage_one": "core",
    "process:_loop": "core",
    "process:_sampler": "obs.gauges",
}

#: The handler calls a delivered packet-hop costs today (2 link events
#: plus the router's processing delay).
HOP_HANDLERS = ("event:tx-done", "event:arrival", "event:cpu")

#: Boundaries also kept as coarse spans (a handful per run).
SPAN_BOUNDARIES = frozenset({
    "run_download", "TestbedScenario.__init__",
    "TestbedScenario.publish_default_content", "Simulator.run",
})

ROOT_FRAME = "<benchmark>"
_SESSION_SUFFIX = re.compile(r"-\d+$")


def resolve(path: str):
    """A module or ``module.Class`` from its dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def raw_attribute(owner, attr: str):
    """The attribute as stored (a class's plain function, not a bound
    method), so that putting it back restores the class exactly."""
    return owner.__dict__[attr] if inspect.isclass(owner) \
        else getattr(owner, attr)


def _label(owner, attr: str) -> str:
    return attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"


class LayerProfiler(SimProfiler):
    """``SimProfiler`` that also splits handler totals into self time."""

    def __init__(self, sim, tracer: "Tracer") -> None:
        super().__init__(sim)
        self._tracer = tracer
        self._frame = None
        self._covered = 0.0

    def record_step(self, event, elapsed: float, depth: int) -> None:
        super().record_step(event, elapsed, depth)
        tracer = self._tracer
        # Every shim the callbacks entered has returned, so the top of
        # the stack is the Simulator.run frame; what its children
        # added since the previous step ran under this handler.
        frame = tracer._stack[-1]
        if frame is not self._frame:
            self._frame = frame
            self._covered = 0.0
        covered = frame[1] - self._covered
        self._covered = frame[1]
        name = event.name
        key = tracer._handler_keys.get((event.__class__, name))
        if key is None:
            if isinstance(event, Process):
                key = f"process:{name or 'anonymous'}"
            else:
                base = name.split("(")[0] or type(event).__name__
                key = f"event:{_SESSION_SUFFIX.sub('', base)}"
            tracer._handler_keys[(event.__class__, name)] = key
        cell = tracer.handlers.get(key)
        if cell is None:
            cell = tracer.handlers[key] = [0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += elapsed
        cell[2] += elapsed - covered


class Tracer:
    """Installs the shims, holds what they record."""

    def __init__(self) -> None:
        #: ``(boundary, parent) -> [calls, inclusive_s, self_s]``
        self.edges: dict[tuple[str, str], list] = {}
        #: profiler key -> ``[calls, total_s, self_s]``
        self.handlers: dict[str, list] = {}
        #: packet type name -> ``[acquired, bytes]``
        self.packets: dict[str, list] = {}
        #: coarse spans: name, start, end, parent, run
        self.spans: list[dict] = []
        self.layer_of: dict[str, str] = {}
        self.profilers: list[LayerProfiler] = []
        self._stack: list[list] = [[ROOT_FRAME, 0.0]]
        self._handler_keys: dict = {}
        self._patched: list[tuple[object, str, object]] = []
        self._wrapped_handlers: dict = {}
        self._run_ids: list[str] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> "Tracer":
        try:
            for path, attr, layer in BOUNDARIES:
                self._patch(resolve(path), attr, layer)
            for path, layer, subclasses in WHOLE_CLASSES:
                self._patch_class(resolve(path), layer, subclasses)
            self._patch_bus()
            self._patch_packets()
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        for profiler in self.profilers:
            profiler.uninstall()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _replace(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, raw_attribute(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch(self, owner, attr: str, layer: str) -> None:
        label = _label(owner, attr)
        self.layer_of[label] = layer
        make = {
            "run_download": self._run_shim,
            "TestbedScenario.__init__": self._scenario_shim,
        }.get(label, self._shim)
        self._replace(owner, attr, make(label, raw_attribute(owner, attr)))

    def _patch_class(self, cls, layer: str, subclasses: bool) -> None:
        targets = [cls]
        if subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                targets.append(sub)
                pending.extend(sub.__subclasses__())
        for target in targets:
            for attr, value in list(target.__dict__.items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if getattr(value, "__isabstractmethod__", False):
                    continue
                self._patch(target, attr, layer)

    # -- the shims ---------------------------------------------------------------

    def _shim(self, label: str, fn):
        stack = self._stack
        edges = self.edges
        clock = perf_counter
        spans = self.spans if label in SPAN_BOUNDARIES else None
        run_ids = self._run_ids

        def shim(*args, **kwargs):
            frame = [label, 0.0]
            parent = stack[-1]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                parent[1] += elapsed
                key = (label, parent[0])
                cell = edges.get(key)
                if cell is None:
                    cell = edges[key] = [0, 0.0, 0.0]
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - frame[1]
                if spans is not None:
                    spans.append({
                        "name": label, "start": started,
                        "end": started + elapsed, "parent": parent[0],
                        "run": run_ids[-1] if run_ids else "",
                    })

        shim.__wrapped__ = fn
        return shim

    def _scenario_shim(self, label: str, original):
        """Time the build, then profile the scenario's kernel."""
        timed = self._shim(label, original)
        tracer = self

        def init(scenario, *args, **kwargs):
            timed(scenario, *args, **kwargs)
            tracer.profilers.append(
                LayerProfiler(scenario.sim, tracer).install()
            )

        init.__wrapped__ = original
        return init

    def _run_shim(self, label: str, original):
        """Time the run, and give its coarse spans one run id."""
        timed = self._shim(label, original)
        run_ids = self._run_ids

        def run_download(system, *args, **kwargs):
            run_ids.append(
                kwargs.get("run_id")
                or f"{system}-seed{kwargs.get('seed', 0)}"
            )
            try:
                return timed(system, *args, **kwargs)
            finally:
                run_ids.pop()

        run_download.__wrapped__ = original
        return run_download

    def _patch_bus(self) -> None:
        """Shim handlers as they subscribe, keyed by owner class."""
        from repro.obs.bus import EventBus

        wrapped = self._wrapped_handlers
        subscribe = EventBus.subscribe
        subscribe_all = EventBus.subscribe_all
        unsubscribe = EventBus.unsubscribe
        unsubscribe_all = EventBus.unsubscribe_all

        def wrap(handler):
            shim = wrapped.get(handler)
            if shim is None:
                owner = getattr(handler, "__self__", None)
                name = (type(owner).__name__ if owner is not None
                        else getattr(handler, "__qualname__", "handler"))
                label = f"{name}.on_event"
                self.layer_of[label] = SUBSCRIBER_LAYERS.get(name, "obs.other")
                shim = wrapped[handler] = self._shim(label, handler)
            return shim

        def shim_subscribe(bus, topic, handler):
            subscribe(bus, topic, wrap(handler))
            return handler

        def shim_subscribe_all(bus, handler):
            subscribe_all(bus, wrap(handler))
            return handler

        def shim_unsubscribe(bus, topic, handler):
            unsubscribe(bus, topic, wrapped.get(handler, handler))

        def shim_unsubscribe_all(bus, handler):
            unsubscribe_all(bus, wrapped.get(handler, handler))

        self._replace(EventBus, "subscribe", shim_subscribe)
        self._replace(EventBus, "subscribe_all", shim_subscribe_all)
        self._replace(EventBus, "unsubscribe", shim_unsubscribe)
        self._replace(EventBus, "unsubscribe_all", shim_unsubscribe_all)

    def _patch_packets(self) -> None:
        """Count packets (and bytes) the transports acquire, by type."""
        from repro.xia.packet import Packet

        acquire = Packet.__dict__["acquire"].__func__
        packets = self.packets

        def counting_acquire(cls, ptype, *args, **kwargs):
            packet = acquire(cls, ptype, *args, **kwargs)
            cell = packets.get(ptype.name)
            if cell is None:
                cell = packets[ptype.name] = [0, 0]
            cell[0] += 1
            cell[1] += packet.size_bytes
            return packet

        self._replace(Packet, "acquire", classmethod(counting_acquire))

    # -- reading -----------------------------------------------------------------

    def calls(self, boundary: str) -> int:
        return sum(c[0] for (name, _), c in self.edges.items()
                   if name == boundary)

    def inclusive_s(self, boundary: str) -> float:
        return sum(c[1] for (name, _), c in self.edges.items()
                   if name == boundary)

    def layer_self_s(self) -> dict[str, float]:
        """Host self seconds per layer, shims and kernel handlers both."""
        out: dict[str, float] = {}
        for (name, _parent), cell in self.edges.items():
            if name == "Simulator.run":
                continue  # split below into handlers + the kernel's own
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + cell[2]
        kernel = self.inclusive_s("Simulator.run")
        for key, (_calls, total, self_s) in self.handlers.items():
            kernel -= total
            layer = HANDLER_LAYERS.get(key, "sim")
            out[layer] = out.get(layer, 0.0) + self_s
        out["sim"] = out.get("sim", 0.0) + kernel
        return out

    def layer_calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (name, _parent), cell in self.edges.items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0) + cell[0]
        for key, cell in self.handlers.items():
            layer = HANDLER_LAYERS.get(key, "sim")
            out[layer] = out.get(layer, 0) + cell[0]
        return out

    def to_json(self) -> dict:
        """The aggregates and coarse spans, as written to ``--out``."""
        return {
            "edges": [
                {"boundary": name, "parent": parent, "calls": cell[0],
                 "inclusive_s": cell[1], "self_s": cell[2],
                 "layer": self.layer_of[name]}
                for (name, parent), cell in sorted(self.edges.items())
            ],
            "handlers": [
                {"key": key, "calls": cell[0], "total_s": cell[1],
                 "self_s": cell[2], "layer": HANDLER_LAYERS.get(key, "sim")}
                for key, cell in sorted(self.handlers.items())
            ],
            "packets": {k: {"acquired": v[0], "bytes": v[1]}
                        for k, v in sorted(self.packets.items())},
            "spans": self.spans,
        }
