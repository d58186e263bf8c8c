"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def _child_env():
    """The environment for a ``python -m repro`` child process."""
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_unknown_panel():
    with pytest.raises(SystemExit):
        main(["sweep", "--panel", "z"])


@pytest.mark.parametrize("command", [
    ["sweep", "--panel", "b", "--file-mb", "1"],
    ["handoff", "--file-mb", "1"],
    ["traces", "--duration", "5"],
])
def test_cli_seeds_zero_is_an_exit_message_not_a_traceback(command):
    """``--seeds 0`` used to die in ``statistics.mean`` of nothing, each
    driver in its own place; ``run_grid`` refuses it once and ``main``
    words the ``ConfigurationError`` as the exit message."""
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--seeds", "0"])
    assert exit_info.value.code == "a comparison needs at least one seed"


@pytest.mark.parametrize("size", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ["demo"], ["sweep", "--panel", "b", "--seeds", "1"], ["profile"],
    ["handoff"],
])
def test_cli_non_finite_file_mb_is_an_exit_message_not_a_traceback(
        command, size):
    """``int(nan * MB)`` raised ValueError and ``int(inf * MB)``
    OverflowError from each handler's own conversion; ``file_bytes``
    refuses both before anything runs."""
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--file-mb", size])
    assert exit_info.value.code == f"--file-mb must be finite, got {size}"


def test_cli_demo_runs_small(capsys):
    assert main(["demo", "--file-mb", "2"]) == 0
    out = capsys.readouterr().out
    assert "Xftp" in out and "SoftStage" in out and "gain" in out


def test_cli_fig5_prints_table(capsys):
    assert main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "xchunkp" in out and "paper (Mbps)" in out


def test_cli_demo_trace_and_spans(tmp_path, capsys):
    trace = tmp_path / "demo.jsonl"
    assert main([
        "demo", "--file-mb", "2", "--trace", str(trace), "--spans",
    ]) == 0
    out = capsys.readouterr().out
    assert "Spans [xftp-seed0]" in out
    assert "Spans [softstage-seed0]" in out
    assert trace.exists()
    # Both runs landed in the one file, told apart by run id.
    from repro.obs import read_trace

    run_ids = {s.run_id for s in read_trace(str(trace))}
    assert run_ids == {"xftp-seed0", "softstage-seed0"}


#: sha1 of ``repro sweep --panel b --file-mb 2 --seeds 2``'s printed
#: series and of its ``--trace`` JSONL, captured at 7d9c532 (the commit
#: before the sweep's sequential loop and worker-pool path became one).
#: The trace's was re-captured when ARQ retries became one run-end
#: ``LinkRetransmission`` per wireless direction, and again when drops
#: and segment retransmissions became run totals and a run's gauge
#: names came to be written once (each run replays to the same report
#: and timelines as from the trace before), and when the link up/down,
#: ARQ and pre-staging events went and session ids became per simulator
#: (the same wide records but for each run record's ``events``), and
#: when coordinator rounds and RTO expiries became run totals (each run
#: replays to the same report and timelines as from the trace before).
SWEEP_SERIES_SHA1 = "1e4a11b8ad9a8aba4047260f26051ec54cb98eb4"
SWEEP_TRACE_SHA1 = "b0bd38deb65320e7f0c5b7a2d186cb76aa7454db"


def test_cli_sweep_trace_and_series_are_pinned_for_any_jobs(tmp_path):
    import hashlib
    import subprocess
    import sys

    from repro.obs import read_trace

    def sweep(*extra):
        # A fresh interpreter per sweep, as from the command line.
        return subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--panel", "b",
             "--file-mb", "2", "--seeds", "2", *extra],
            check=True, capture_output=True, text=True, env=_child_env(),
        ).stdout

    trace = tmp_path / "sweep.jsonl"
    traced = sweep("--trace", str(trace))
    fanned = sweep("--jobs", "2")
    assert hashlib.sha1(fanned.encode()).hexdigest() == SWEEP_SERIES_SHA1
    assert traced == f"{fanned}\ntrace written to {trace}\n"
    assert hashlib.sha1(trace.read_bytes()).hexdigest() == SWEEP_TRACE_SHA1
    run_ids = {s.run_id for s in read_trace(str(trace))}
    assert run_ids == {
        f"{point}/{system}-seed{seed}"
        for point in ("3s", "4s", "12s")
        for system in ("xftp", "softstage")
        for seed in (0, 1)
    }


def test_cli_traces_runs_the_simulator_the_goldens_pin(capsys):
    """``repro traces`` and ``test_golden_figures`` are one simulator.

    Chunk counts captured at 7d9c532 with ``--scale 1``; the trace-2
    row is ``GOLDEN_DRIVE``'s seed-0 drive (synthesis seed 7) run to
    the end of the trace instead of its first 30 s.
    """
    assert main(["traces", "--seeds", "1", "--duration", "100"]) == 0
    rows = {
        cells[0]: (int(cells[2]), int(cells[3]))
        for cells in (
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("trace-")
        )
    }
    assert rows == {"trace-1": (10, 28), "trace-2": (7, 20)}


def test_cli_trace_subcommands_end_to_end(tmp_path, capsys):
    import json

    trace = tmp_path / "demo.jsonl"
    main(["demo", "--file-mb", "2", "--trace", str(trace)])
    capsys.readouterr()

    assert main(["trace", "summary", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "run xftp-seed0" in out and "run softstage-seed0" in out
    assert "Spans [softstage-seed0]" in out

    assert main(["trace", "spans", str(trace), "--run", "softstage-seed0",
                 "--critical"]) == 0
    out = capsys.readouterr().out
    assert "kind" in out and "Critical path" in out

    chrome = tmp_path / "chrome.json"
    assert main(["trace", "chrome", str(trace), "-o", str(chrome)]) == 0
    payload = json.loads(chrome.read_text())
    assert payload["traceEvents"]
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert all("ts" in e and "dur" in e for e in complete)

    # Diff the two runs inside the single multi-run file.
    assert main(["trace", "diff", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "A=xftp-seed0" in out and "B=softstage-seed0" in out

    # And the same run across two "files" (here: the same file twice).
    assert main(["trace", "diff", str(trace), str(trace),
                 "--run-a", "xftp-seed0", "--run-b", "softstage-seed0"]) == 0


#: Two whole events of one run: a trace no simulation has to write.
_TRACE_LINES = (
    '{"t":1.0,"run":"r0","type":"CacheHit","store":"s","cid":"c"}\n'
    '{"t":2.0,"run":"r0","type":"SessionMigrated","session":4}\n'
)

_TRACE_COMMANDS = {
    "summary": lambda path: ["trace", "summary", path],
    "spans": lambda path: ["trace", "spans", path],
    "chrome": lambda path: ["trace", "chrome", path, "-o", path + ".chrome"],
    "diff": lambda path: ["trace", "diff", path],
    "wide": lambda path: ["trace", "wide", path],
}


def test_cli_trace_summary_reports_what_the_reader_skipped(tmp_path, capsys):
    """A clean trace's summary says nothing about skipped records; an
    unknown event type and a torn last line are counted on one line."""
    clean = tmp_path / "clean.jsonl"
    clean.write_text(_TRACE_LINES)
    assert main(["trace", "summary", str(clean)]) == 0
    clean_out = capsys.readouterr().out
    assert "skipped" not in clean_out

    torn = tmp_path / "torn.jsonl"
    torn.write_text(
        _TRACE_LINES
        + '{"t":2.5,"run":"r0","type":"ProfilerSample","depth":3,"steps":2}\n'
        + '{"t":2.6,"run":"r0","type":"ProfilerSample","depth":1,"steps":4}\n'
        + '{"t":3.0,"run":"r0","ty'
    )
    with pytest.warns(UserWarning):
        assert main(["trace", "summary", str(torn)]) == 0
    assert capsys.readouterr().out == clean_out + (
        "skipped 3 unreadable record(s): ProfilerSample×2, <torn line>×1\n"
    )


@pytest.mark.parametrize("flag, header", [
    ("--run-a", "A=r1  B=r0"), ("--run-b", "A=r0  B=r1")],
    ids=["run-a", "run-b"])
def test_cli_trace_diff_one_flag_compares_against_another_run(
    flag, header, tmp_path, capsys
):
    """With one side named, the other is the first run in the file that
    is not that run (it used to be the named run itself); a file holding
    only the named run is an exit message."""
    two_runs = tmp_path / "two.jsonl"
    two_runs.write_text(_TRACE_LINES + _TRACE_LINES.replace('"r0"', '"r1"'))
    assert main(["trace", "diff", str(two_runs), flag, "r1"]) == 0
    assert f"Span diff: {header}" in capsys.readouterr().out
    one_run = tmp_path / "one.jsonl"
    one_run.write_text(_TRACE_LINES)
    assert _exit_message(["trace", "diff", str(one_run), flag, "r0"]) == (
        f"{one_run} holds a single run (r0); "
        "pass a second file or --run-a/--run-b"
    )


def _exit_message(argv):
    """What a failing command prints: ``SystemExit`` with a string is
    that string on stderr and status 1."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert isinstance(exit_info.value.code, str)
    return exit_info.value.code


@pytest.mark.parametrize("command", _TRACE_COMMANDS.values(),
                         ids=list(_TRACE_COMMANDS))
def test_cli_trace_bad_input_is_an_exit_message_not_a_traceback(
    command, tmp_path
):
    """A missing file, a directory, a run id the trace does not hold and
    a corrupt trace each used to end in a traceback (``FileNotFoundError``,
    ``IsADirectoryError``, ``pick_run``'s ``ValueError``,
    ``JSONDecodeError``; ``trace wide --run`` printed the summary of an
    empty run and exited 0)."""
    missing = str(tmp_path / "nope.jsonl")
    assert _exit_message(command(missing)) == (
        f"{missing}: No such file or directory"
    )
    assert _exit_message(command(str(tmp_path))) == (
        f"{tmp_path}: Is a directory"
    )

    good = tmp_path / "good.jsonl"
    good.write_text(_TRACE_LINES, encoding="utf-8")
    flag = "--run-b" if command is _TRACE_COMMANDS["diff"] else "--run"
    message = _exit_message([*command(str(good)), flag, "r9"])
    assert message.startswith("run 'r9' not in trace")

    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text(_TRACE_LINES + '{"t":3.0,"ru\n' + _TRACE_LINES,
                       encoding="utf-8")
    assert _exit_message(command(str(corrupt))).startswith(
        f"{corrupt}:3: unreadable trace line "
    )
    # A torn *last* line is the trace of a run that died: still readable.
    torn = tmp_path / "torn.jsonl"
    torn.write_text(_TRACE_LINES * 2 + '{"t":3.0,"ru', encoding="utf-8")
    argv = command(str(torn))
    if command is _TRACE_COMMANDS["diff"]:  # needs two runs to compare
        argv += ["--run-a", "r0", "--run-b", "r0"]
    with pytest.warns(UserWarning, match="torn final trace line"):
        assert main(argv) == 0


def test_cli_slo_bad_spec_is_an_exit_message_not_a_traceback(tmp_path):
    """``GET /slo?slo=gain >> 3`` answers 400 with this text; the CLI
    used to die in ``parse_slo``'s ``ValueError``."""
    assert _exit_message([
        "slo", "--registry-dir", str(tmp_path), "check", "--slo", "gain >> 3",
    ]) == (
        "unparseable SLO spec 'gain >> 3' (expected e.g. 'gain >= 1.2' "
        "or 'p95(stage_latency) <= 2.0 [@ 30]')"
    )


def test_cli_runs_show_unknown_key_prints_the_message_unquoted(tmp_path):
    """``RecordNotFound`` is a ``KeyError``: ``str`` of it is the repr of
    its message, which printed the line wrapped in double quotes."""
    assert _exit_message(
        ["runs", "--registry-dir", str(tmp_path), "show", "nosuch"]
    ) == (
        f"no registry record matches 'nosuch' "
        f"(0 records in {tmp_path / 'registry.jsonl'})"
    )


def test_cli_watch_unreachable_stream_is_an_exit_message_not_a_traceback(
    tmp_path
):
    """Nothing listening (``URLError``), a server without a hub (503) and
    an unknown path (404, both ``HTTPError``) each name the URL."""
    import socket

    from repro.obs.registry import RunRegistry
    from repro.obs.server import make_server

    with socket.socket() as unused:  # a port nobody listens on
        unused.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{unused.getsockname()[1]}"
    message = _exit_message(["watch", dead])
    assert message.startswith(f"cannot watch {dead}/live: ")
    assert "Connection refused" in message and "\n" not in message

    server = make_server(registry=RunRegistry(str(tmp_path)))  # no hub
    server.serve_background()
    try:
        assert _exit_message(["watch", server.url]) == (
            f"cannot watch {server.url}/live: "
            "HTTP Error 503: Service Unavailable"
        )
        assert _exit_message(["watch", server.url + "/nosuch"]) == (
            f"cannot watch {server.url}/nosuch/live: "
            "HTTP Error 404: Not Found"
        )
    finally:
        server.shutdown()
        server.server_close()


def test_cli_serve_on_a_taken_port_is_an_exit_message_not_a_traceback(
    tmp_path
):
    import socket

    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        message = _exit_message([
            "serve", "--registry-dir", str(tmp_path), "--port", str(port),
        ])
    assert message.startswith(f"cannot serve on 127.0.0.1:{port}: ")
    assert "Address already in use" in message


def test_cli_emit_wide_matches_offline_trace_wide_byte_for_byte(
    tmp_path, capsys
):
    trace = tmp_path / "demo.jsonl"
    live = tmp_path / "live-wide.jsonl"
    offline = tmp_path / "offline-wide.jsonl"
    assert main([
        "demo", "--file-mb", "2", "--trace", str(trace),
        "--emit-wide", str(live),
    ]) == 0
    assert "wide events written to" in capsys.readouterr().out
    assert main(["trace", "wide", str(trace), "-o", str(offline)]) == 0
    assert "byte-identical" in capsys.readouterr().out
    assert live.read_bytes() == offline.read_bytes()
    # Both demo runs landed in the one wide file.
    import json

    runs = {json.loads(line)["run"] for line in live.read_text().splitlines()}
    assert runs == {"xftp-seed0", "softstage-seed0"}


def test_cli_trace_wide_prints_canonical_jsonl(tmp_path, capsys):
    import json

    trace = tmp_path / "demo.jsonl"
    main(["demo", "--file-mb", "2", "--trace", str(trace)])
    capsys.readouterr()
    assert main(["trace", "wide", str(trace),
                 "--run", "softstage-seed0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records and all(r["run"] == "softstage-seed0" for r in records)
    assert records[-1]["kind"] == "run"


def test_cli_demo_emit_wide_defaults_into_the_registry(tmp_path, capsys):
    assert main([
        "demo", "--file-mb", "2", "--registry-dir", str(tmp_path),
        "--emit-wide",
    ]) == 0
    out = capsys.readouterr().out
    assert "wide events written to" in out
    wide = tmp_path / "wide" / "demo-seed0.jsonl"
    assert wide.exists() and wide.read_text().strip()


def test_cli_demo_live_renders_the_dashboard(tmp_path, capsys):
    assert main([
        "demo", "--file-mb", "2", "--live",
        "--registry-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    # The repaint loop ran (no TTY -> appended frames, no ANSI clears)
    # and the ordinary demo summary still printed afterwards.
    assert "repro live telemetry" in out
    assert "run softstage-seed0: finished" in out
    assert "gain" in out
    assert "\x1b[2J" not in out


def test_cli_trace_summary_missing_run_errors(tmp_path, capsys):
    trace = tmp_path / "demo.jsonl"
    main(["demo", "--file-mb", "2", "--trace", str(trace)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["trace", "summary", str(trace), "--run", "no-such-run"])
    assert exit_info.value.code == (
        "run 'no-such-run' not in trace (has: xftp-seed0, softstage-seed0)"
    )


def test_cli_profile_prints_hot_handlers(capsys):
    assert main(["profile", "--file-mb", "2", "--system", "softstage"]) == 0
    out = capsys.readouterr().out
    assert "Simulator profile [softstage-seed0]" in out
    assert "steps=" in out and "heap pushes=" in out
    assert "process:" in out


# ---------------------------------------------------------------------------
# SLO checks and root-cause attribution (`repro slo`, `repro runs why`)
# ---------------------------------------------------------------------------


def _demo_with_telemetry(tmp_path, capsys):
    """A 2MB demo recorded with gauges + wide events, output discarded."""
    assert main([
        "demo", "--file-mb", "2", "--gauges", "--emit-wide",
        "--registry-dir", str(tmp_path),
    ]) == 0
    capsys.readouterr()


def test_cli_slo_check_passes_on_healthy_records(tmp_path, capsys):
    _demo_with_telemetry(tmp_path, capsys)
    assert main([
        "slo", "--registry-dir", str(tmp_path), "check",
        "--slo", "p95(fetch_latency) <= 1000",
        "--slo", "chunks_completed >= 1",
    ]) == 0
    out = capsys.readouterr().out
    assert "all SLOs pass" in out
    assert "FAIL" not in out
    # No alert file is written on a green check.
    assert not (tmp_path / "alerts.jsonl").exists()


def test_cli_slo_check_fails_on_injected_gain_collapse(tmp_path, capsys):
    from repro.obs.registry import RunRegistry

    _demo_with_telemetry(tmp_path, capsys)
    # Inject a Fig. 6 gain regression: SoftStage barely beats Xftp.
    RunRegistry(str(tmp_path)).append(
        "demo-regressed", "demo", {"gain": 0.61},
    )
    with pytest.raises(SystemExit) as err:
        main([
            "slo", "--registry-dir", str(tmp_path), "check",
            "demo-regressed", "--slo", "gain >= 1.2",
        ])
    assert err.value.code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "0.61" in out
    assert "alert(s) appended" in out
    # The violation landed in the persistent alert log.
    assert main(["slo", "--registry-dir", str(tmp_path), "alerts"]) == 0
    out = capsys.readouterr().out
    assert "gain >= 1.2" in out and "demo-regressed" in out


def test_cli_slo_check_json_is_deterministic(tmp_path, capsys):
    import json

    _demo_with_telemetry(tmp_path, capsys)
    args = [
        "slo", "--registry-dir", str(tmp_path), "check",
        "softstage-seed0", "--slo", "chunks_completed >= 1",
        "--json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["violations"] == []
    assert payload["records"][0]["rec_id"].endswith("softstage-seed0")


def test_cli_runs_why_ranks_phase_contributors(tmp_path, capsys):
    import json

    from repro.obs.explain import PHASES

    _demo_with_telemetry(tmp_path, capsys)
    # Xftp is the slow run; why is it slower than SoftStage?
    args = [
        "runs", "--registry-dir", str(tmp_path),
        "why", "softstage-seed0", "xftp-seed0",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "why: " in first
    assert "phase contributors (ranked)" in first
    assert "largest contributor:" in first
    # Byte-identical on repeat: attribution is deterministic.
    assert main(args) == 0
    assert capsys.readouterr().out == first
    # The machine-readable verdict names a known phase, ranked first.
    assert main([*args, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ranked = [c["name"] for c in payload["contributors"]]
    assert ranked[0] in PHASES
    deltas = [abs(c["delta"]) for c in payload["contributors"]]
    assert deltas == sorted(deltas, reverse=True)


def test_cli_runs_why_errors_cleanly_without_wide_events(tmp_path, capsys):
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(str(tmp_path))
    registry.append("a", "demo", {"gain": 1.5})
    registry.append("b", "demo", {"gain": 1.2})
    with pytest.raises(SystemExit) as err:
        main(["runs", "--registry-dir", str(tmp_path),
              "why", "0001/a", "0002/b"])
    assert "no wide events" in str(err.value)
    with pytest.raises(SystemExit) as err:
        main(["runs", "--registry-dir", str(tmp_path),
              "why", "bogus", "0002/b"])
    assert "bogus" in str(err.value)


# ---------------------------------------------------------------------------
# Clean shutdown: `repro serve` / `repro watch` under SIGINT/SIGTERM
# ---------------------------------------------------------------------------


def _spawn_serve(tmp_path, *extra, prelude=""):
    """``repro serve`` in a child; ``prelude`` is code it runs first."""
    import subprocess
    import sys

    launch = ["-m", "repro"] if not prelude else [
        "-c", prelude + "\nimport sys\nfrom repro.__main__ import main\n"
                        "sys.exit(main(sys.argv[1:]))",
    ]
    return subprocess.Popen(
        [sys.executable, "-u", *launch, "serve", "--port", "0",
         "--registry-dir", str(tmp_path), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_child_env(),
    )


def _wait_until_serving(proc):
    """Read stdout until the bound URL appears; return that URL."""
    import urllib.request

    while True:
        line = proc.stdout.readline()
        assert line, "serve exited before binding"
        if "serving registry" in line:
            url = line.rsplit(" on ", 1)[1].strip()
            break
    # The accept loop is up once /healthz answers.
    for _ in range(100):
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=1):
                return url
        except OSError:
            import time

            time.sleep(0.05)
    raise AssertionError("serve never answered /healthz")


@pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
def test_cli_serve_shuts_down_cleanly_on_signal(tmp_path, signame):
    import signal

    proc = _spawn_serve(tmp_path)
    try:
        _wait_until_serving(proc)
        proc.send_signal(getattr(signal, signame))
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert "shut down cleanly" in out
    assert "Traceback" not in err


#: Keeps socketserver's accept loop inside ``process_request`` after the
#: handler thread is already streaming.  An interrupt raised in there
#: makes socketserver shut that request's socket; under CPU load the
#: window is wide enough on its own (the old ~1/8 flake).
_SLOW_DISPATCH = """
import socketserver, time
_dispatch = socketserver.ThreadingMixIn.process_request
def _slow(self, request, client_address):
    _dispatch(self, request, client_address)
    time.sleep(0.5)
socketserver.ThreadingMixIn.process_request = _slow
"""


def test_cli_serve_demo_signal_closes_the_live_stream(tmp_path):
    """SIGTERM mid-demo: /live subscribers get the SSE end frame."""
    _assert_signal_ends_the_live_stream(tmp_path)


def test_cli_serve_signal_during_request_dispatch_spares_the_stream(tmp_path):
    """The signal never lands in the accept loop, so it cannot close a
    /live request that loop is still dispatching."""
    # A demo long enough to still be running once the held-up accept
    # loop gets to the /live request.
    _assert_signal_ends_the_live_stream(
        tmp_path, file_mb="32", prelude=_SLOW_DISPATCH
    )


def _assert_signal_ends_the_live_stream(tmp_path, file_mb="2", prelude=""):
    import signal
    import threading
    import urllib.request

    proc = _spawn_serve(
        tmp_path, "--demo", "--file-mb", file_mb, prelude=prelude
    )
    try:
        url = _wait_until_serving(proc)
        connected = threading.Event()
        saw_end = threading.Event()

        def _consume():
            with urllib.request.urlopen(url + "/live", timeout=10) as live:
                for raw in live:
                    if raw.startswith(b"event: hello"):
                        connected.set()
                    elif raw.startswith(b"event: end"):
                        saw_end.set()
                        return

        consumer = threading.Thread(target=_consume, daemon=True)
        consumer.start()
        assert connected.wait(timeout=10), "live stream never connected"
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=15)
        consumer.join(timeout=10)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert "shut down cleanly" in out
    assert "Traceback" not in err
    assert saw_end.is_set()


def test_cli_watch_interrupt_closes_the_stream_cleanly(
    monkeypatch, capsys
):
    import urllib.request

    from repro.obs.server import sse_format

    class InterruptedStream:
        """An SSE response whose reader gets a Ctrl-C mid-stream."""

        closed = False

        def __iter__(self):
            yield from sse_format(
                "gauge",
                {"run": "r", "t": 0.0, "gauges": {"g": 1.0}},
            ).splitlines(keepends=True)
            raise KeyboardInterrupt

        def close(self):
            self.closed = True

    stream = InterruptedStream()
    monkeypatch.setattr(
        urllib.request, "urlopen", lambda url: stream
    )
    assert main(["watch", "http://example.invalid"]) == 0
    out = capsys.readouterr().out
    assert "watch interrupted; stream closed cleanly" in out
    assert stream.closed
