"""Torn and glued JSONL lines: a writer killed mid-append must cost
one record, not the file.

Every case here fails at the commit before :mod:`repro.obs.jsonl`:
readers raised ``JSONDecodeError`` (``runs``/``slo`` commands printed a
traceback, every endpoint answered 500) and the next ``append`` glued
its record onto the fragment, losing it and the file with it.
"""

import contextlib
import io
import json
import urllib.error
import urllib.request

import pytest

from repro.__main__ import main
from repro.obs import jsonl
from repro.obs.registry import RunRegistry
from repro.obs.server import make_server
from repro.obs.slo import AlertLog, AlertRecord
from repro.obs.wide import WideEventWriter, read_wide

#: What a writer that died after 20 bytes of its record leaves behind.
TORN = '{"rec_id": "0002/dea'


def _tear(path, fragment=TORN):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(fragment)


@pytest.fixture
def registry(tmp_path):
    registry = RunRegistry(str(tmp_path))
    registry.append("first", "demo", {"gain": 1.8})
    return registry


# -- the codec ---------------------------------------------------------------


def test_read_records_skips_bad_lines_anywhere_with_one_counted_warning(
    tmp_path
):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"n": 1}\n'
        '{"n": 2, "torn": tr\n'        # torn mid-file
        '\n'
        '{"n": 3}{"n": 4}\n'           # glued by a pre-fix appender
        '{"n": 5}\n'
        '{"n": 6',                     # torn tail
        encoding="utf-8",
    )
    with pytest.warns(UserWarning) as caught:
        records = list(jsonl.read_records(str(path)))
    assert records == [{"n": 1}, {"n": 5}]
    (warning,) = caught
    assert "3 unparseable line(s)" in str(warning.message)
    assert "log.jsonl" in str(warning.message)
    # An open file reads the same and stays the caller's to close.
    with open(path, encoding="utf-8") as fh, pytest.warns(UserWarning):
        assert list(jsonl.read_records(fh)) == records
        assert not fh.closed


def test_read_records_skips_lines_that_are_no_object_or_fail_to_decode(
    tmp_path
):
    path = tmp_path / "log.jsonl"
    path.write_text('[1, 2]\n5\nnull\n"x"\n{"n": 1}\n{"m": 2}\n{"n": 3}\n',
                    encoding="utf-8")
    with pytest.warns(UserWarning, match="5 unparseable"):
        assert list(jsonl.read_records(str(path), lambda p: p["n"])) == [1, 3]


def test_append_terminates_a_torn_tail_and_counts_it(tmp_path):
    path = str(tmp_path / "sub" / "log.jsonl")
    seen = []

    class Rec:
        def __init__(self, n):
            self.n = n

        def to_json(self):
            return {"n": self.n}

    def make(count):
        seen.append(count)
        return Rec(count)

    assert jsonl.append(path, make).n == 0  # creates the directory too
    _tear(path, '{"n": 1, "x')
    jsonl.append(path, make)
    jsonl.append(path, make)
    assert seen == [0, 2, 3]  # the torn line kept its sequence number
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == '{"n":0}\n{"n": 1, "x\n{"n":2}\n{"n":3}\n'


# -- registry, alert log, wide files -----------------------------------------


def test_registry_reads_past_a_torn_tail(registry):
    _tear(registry.path)
    with pytest.warns(UserWarning, match="1 unparseable"):
        assert [r.run_id for r in registry.records()] == ["first"]
    with pytest.warns(UserWarning):
        assert registry.find("first").metrics == {"gain": 1.8}


def test_append_after_a_torn_line_loses_nothing(registry):
    _tear(registry.path)
    second = registry.append("second", "demo", {"gain": 1.7})
    third = registry.append("third", "demo", {"gain": 1.6})
    # The fragment kept 0002: three ids were issued, all distinct.
    assert [second.rec_id, third.rec_id] == ["0003/second", "0004/third"]
    with pytest.warns(UserWarning, match="1 unparseable"):
        loaded = registry.records()
    assert [r.rec_id for r in loaded] == [
        "0001/first", "0003/second", "0004/third",
    ]
    # The torn line now sits mid-file, on a line of its own.
    with open(registry.path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[1] == TORN and len(lines) == 4


def test_registry_emptied_between_two_reads_is_an_unknown_key(registry):
    """Truncation to zero between a command's two opens: the second
    key no longer resolves, which is an answer, not a crash."""
    assert registry.find("first")
    open(registry.path, "w").close()
    assert registry.records() == []
    with pytest.raises(KeyError, match="0 records"):
        registry.find("first")


def test_alert_log_reads_and_appends_past_a_torn_line(tmp_path):
    log = AlertLog(str(tmp_path))
    alert = AlertRecord(slo="gain >= 1.2", run="r", value=0.5, threshold=1.2)
    log.append(alert)
    _tear(log.path, '{"slo": "gain >')
    log.append(alert)
    with pytest.warns(UserWarning, match="1 unparseable"):
        assert log.read() == [alert, alert]


def test_read_wide_skips_a_torn_line(tmp_path):
    path = str(tmp_path / "wide.jsonl")
    with WideEventWriter(path) as writer:
        writer.write({"kind": "chunk", "run": "r", "seq": 0})
    _tear(path, '{"kind":"chu')
    with pytest.warns(UserWarning, match="1 unparseable"):
        assert [r["seq"] for r in read_wide(path)] == [0]


# -- through both front doors ------------------------------------------------


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue()


@pytest.mark.parametrize("where", ["tail", "mid-file"])
def test_cli_answers_over_a_torn_registry(registry, where):
    _tear(registry.path)
    if where == "mid-file":
        registry.append("second", "demo", {"gain": 1.7})
    with pytest.warns(UserWarning, match="unparseable"):
        code, out = _cli("runs", "--registry-dir", registry.directory, "list")
    assert code == 0 and "0001/first" in out
    with pytest.warns(UserWarning, match="unparseable"):
        code, out = _cli(
            "slo", "--registry-dir", registry.directory, "check",
            "--no-alerts", "--slo", "gain >= 1.2",
        )
    assert code == 0 and "all SLOs pass" in out
    assert ("0003/second" in out) == (where == "mid-file")


def test_cli_answers_over_a_null_object_and_a_line_that_is_no_object(
    registry
):
    """A null where an object belongs loads as the empty default, like a
    missing key; a line that parses to no object is skipped and counted.
    Both used to end ``runs list``/``show`` and ``slo check`` in a
    ``TypeError`` traceback."""
    _tear(registry.path, '{"rec_id":"0002/b","run_id":"b","metrics":null}\n'
                         '[1,2]\n')
    with pytest.warns(UserWarning, match="1 unparseable"):
        records = registry.records()
    assert [(r.rec_id, r.metrics) for r in records] == [
        ("0001/first", {"gain": 1.8}), ("0002/b", {})]
    for command in (("runs", "list"), ("runs", "show", "first"),
                    ("slo", "check", "first", "--no-alerts")):
        with pytest.warns(UserWarning, match="1 unparseable"):
            code, out = _cli(command[0], "--registry-dir",
                             registry.directory, *command[1:])
        assert code == 0 and "first" in out, command


def test_slo_alerts_skips_an_alert_missing_a_required_key(tmp_path):
    """An alert line lacking one of slo/run/value/threshold is skipped
    and counted; it used to end ``slo alerts`` in a ``TypeError``."""
    log = AlertLog(str(tmp_path))
    alert = AlertRecord(slo="gain >= 1.2", run="r", value=0.5, threshold=1.2)
    log.append(alert)
    _tear(log.path, '{}\n{"slo": "x", "run": "r", "value": 1.0}\n')
    log.append(alert)
    with pytest.warns(UserWarning, match="2 unparseable"):
        assert log.read() == [alert, alert]
    with pytest.warns(UserWarning, match="2 unparseable"):
        code, out = _cli("slo", "--registry-dir", str(tmp_path), "alerts")
    assert code == 0 and out.count("gain >= 1.2") == 2


@pytest.mark.filterwarnings("ignore:skipped 1 unparseable")  # server threads
@pytest.mark.parametrize("where", ["tail", "mid-file"])
def test_http_answers_200_over_a_torn_registry(registry, where):
    _tear(registry.path)
    if where == "mid-file":
        registry.append("second", "demo", {"gain": 1.7})
    server = make_server(port=0, registry=registry)
    server.serve_background()
    try:
        for path in ("/", "/runs", "/runs/first", "/diff?a=first&b=first",
                     "/slo?slo=gain%20%3E%3D%201.2"):
            with urllib.request.urlopen(server.url + path) as response:
                assert response.status == 200, path
                body = json.loads(response.read())
        assert [r["rec_id"] for r in body["records"]][0] == "0001/first"
        with pytest.raises(urllib.error.HTTPError) as missing:
            urllib.request.urlopen(server.url + "/runs/dea")
        assert missing.value.code == 404  # the fragment is not a record
    finally:
        server.shutdown()
        server.server_close()
