"""``repro serve`` and ``repro watch``: the telemetry HTTP service
over the registry, and the live terminal dashboard against it."""

from __future__ import annotations

import signal
import sys
import threading
import urllib.error
import urllib.request

from repro.cli import command, file_bytes, policy_arg, policy_flag, registry_dir_flag
from repro.cli.demo import demo_pair
from repro.obs.dashboard import run_from_sse
from repro.obs.registry import RunRegistry
from repro.obs.server import make_server
from repro.obs.slo import DEFAULT_SLOS, AlertLog, LiveSLOEvaluator
from repro.obs.stream import TelemetryHub


def _handle_sigterm() -> None:
    """Route SIGTERM through KeyboardInterrupt for one clean shutdown
    path (no-op off the main thread, where tests drive these
    commands)."""
    def _graceful(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _graceful)
    except ValueError:  # not the main thread
        pass


def _stop_on_signals():
    """A :class:`threading.Event` that SIGINT and SIGTERM set.

    ``repro serve`` waits on it rather than catch KeyboardInterrupt: an
    exception raised by a signal handler lands wherever the main thread
    is, and inside socketserver's accept loop that closes the socket of
    the request being dispatched — a /live stream lost its SSE ``end``.
    """
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda signum, frame: stop.set())
    return stop


def cmd_serve(args) -> None:
    file_size = file_bytes(args.file_mb)  # before a socket is bound
    hub = TelemetryHub() if args.demo else None
    registry = RunRegistry(args.registry_dir)
    try:
        server = make_server(
            args.host, args.port, registry, hub=hub, wide_dir=args.wide_dir,
        )
    except OSError as exc:  # the port is taken, the host unknown
        raise SystemExit(
            f"cannot serve on {args.host}:{args.port}: {exc}") from None
    stop = _stop_on_signals()
    print(f"serving registry {registry.path} on {server.url}")
    print("endpoints: /runs /runs/<key> /runs/<key>/gauges "
          "/runs/<key>/wide /runs/<key>/explain?base= /diff?a=&b= "
          "/slo /live /healthz")
    evaluator = None
    if args.demo:
        policy = policy_arg(args.policy)
        evaluator = LiveSLOEvaluator(DEFAULT_SLOS).start(
            hub, AlertLog(registry.directory)
        )

        def _demo() -> None:
            try:
                demo_pair(
                    file_size, args.seed, policy,
                    gauges=True, hub=hub,
                )
            finally:
                hub.close()

        threading.Thread(
            target=_demo, name="repro-serve-demo", daemon=True
        ).start()
        print(f"live demo started ({args.file_mb:g} MB, seed {args.seed}) "
              f"— stream it from {server.url}/live "
              f"({len(DEFAULT_SLOS)} live SLOs attached)")
    server.serve_background()
    stop.wait()
    # Close the hub first so every /live subscriber gets the SSE
    # terminal frame before the listening socket goes away, and wait
    # for them to detach — handler threads are daemons, so exiting now
    # would kill them mid-frame.
    if hub is not None:
        hub.close()
        hub.wait_closed(timeout=3.0)
    if evaluator is not None:
        evaluator.join(timeout=2.0)
    server.shutdown()
    server.server_close()
    print("\nshut down cleanly")


def cmd_watch(args) -> None:
    _handle_sigterm()
    url = args.url.rstrip("/")
    if not url.endswith("/live"):
        url += "/live"
    try:
        response = urllib.request.urlopen(url)
    except urllib.error.URLError as exc:  # nothing listening, 404, 503
        raise SystemExit(f"cannot watch {url}: {exc}") from None
    try:
        dash = run_from_sse(
            response,
            clear=sys.stdout.isatty(),
            max_events=args.max_events,
        )
    except KeyboardInterrupt:
        print()
        print("watch interrupted; stream closed cleanly")
        return
    finally:
        response.close()
    print()
    print(f"stream ended: {dash.items_seen} items, "
          f"{dash.wide_seen} wide events")


def register(subparsers) -> None:
    serve = command(subparsers, "serve", cmd_serve,
                    help="HTTP telemetry service over the run registry")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8008)
    registry_dir_flag(serve)
    serve.add_argument("--wide-dir", metavar="DIR",
                       help="wide-event JSONL directory served at "
                            "/runs/<key>/wide (default <registry>/wide)")
    serve.add_argument("--demo", action="store_true",
                       help="also run one live demo on a background thread "
                            "so /live has traffic to stream")
    serve.add_argument("--file-mb", type=float, default=32.0,
                       help="--demo download size")
    serve.add_argument("--seed", type=int, default=0, help="--demo seed")
    policy_flag(serve, "--demo staging policy")

    watch = command(
        subparsers, "watch", cmd_watch,
        help="live dashboard over a serve process's /live stream",
    )
    watch.add_argument("url", help="server base URL (or /live URL) from "
                                   "`python -m repro serve`")
    watch.add_argument("--max-events", type=int, metavar="N",
                       help="stop after N SSE events (default: stream "
                            "until the run ends)")
