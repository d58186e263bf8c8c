"""Golden lifecycle views: every span/wide rendering, pinned by digest.

The digests were captured on the commit *before* the span fold and the
wide-event fold became one state machine (PR 13): sharing the fold must
not move a byte of any view, so each text compares by sha1 with ``==``.
A change that legitimately alters a view re-captures them (run this
file as a script on the commit whose output is the reference) and says
so.
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro.__main__ import main
from repro.core.handoff import ChunkAwarePolicy, RssGreedyPolicy
from repro.experiments.params import MicrobenchParams
from repro.experiments.report import render_spans
from repro.experiments.runner import run_download
from repro.mobility.coverage import overlapping_coverage
from repro.obs.explain import explain, render_why
from repro.obs.trace import read_trace
from repro.obs.wide import WideEventWriter, derive_wide
from repro.util import MB

BULK = MicrobenchParams(file_size=4 * MB)
#: Short encounters: encounter and gap spans/records inside 4 MB.
CHOPPY = MicrobenchParams(
    file_size=4 * MB, chunk_size=1 * MB,
    encounter_time=3.0, disconnection_time=2.0,
)
HANDOFF = MicrobenchParams(file_size=16 * MB, encounter_time=6.0)


def _overlapping():
    """Fresh per run: a coverage object binds to its scenario."""
    return overlapping_coverage(
        ["ap-A", "ap-B"], encounter_time=6.0, overlap_time=1.5,
        total_time=3600.0,
    )


#: name -> the two runs (A, B) sharing one trace and one wide file.
SCENARIOS = {
    "pair-seed0": lambda: [
        dict(system="xftp", params=BULK, seed=0),
        dict(system="softstage", params=BULK, seed=0),
    ],
    "pair-seed1": lambda: [
        dict(system="xftp", params=BULK, seed=1),
        dict(system="softstage", params=BULK, seed=1),
    ],
    "rich-choppy": lambda: [
        dict(system="xftp", params=CHOPPY, seed=0),
        dict(system="softstage", params=CHOPPY, seed=0, policy="rich"),
    ],
    "handoffs": lambda: [
        dict(system="softstage", params=HANDOFF, seed=0, run_id="greedy-seed0",
             coverage=_overlapping(), handoff_policy=RssGreedyPolicy()),
        dict(system="softstage", params=HANDOFF, seed=0, run_id="aware-seed0",
             coverage=_overlapping(), handoff_policy=ChunkAwarePolicy()),
    ],
}

#: scenario -> view -> sha1 of its text, captured at f3dc417.  Re-captured
#: once when ARQ retries became one run-end ``LinkRetransmission`` per
#: wireless direction: ``trace summary`` (the event counts), ``emit_wide``
#: and ``trace wide`` (the run record's ``events``; its ``t_end`` too
#: where the last event used to be a retried frame before the download
#: ended) and, through that ``t_end``, ``runs why``.  Re-captured again
#: when a sampler tick became one ``GaugeSample`` for all its gauges:
#: ``trace summary`` (the event counts), ``emit_wide`` and ``trace wide``
#: (the run record's ``events``, nothing else).  Re-captured once more
#: when drops and segment retransmissions became run totals, and again
#: when link up/down, ARQ and pre-staging events were deleted and a drop
#: total became one per direction, and when coordinator rounds and RTO
#: expiries became run totals: the same three views, for the same
#: reason.
GOLDEN = {'handoffs': {'emit_wide': '419f0600eb123abafcebf91ebc2c4ff838b3e2d4',
              'render_spans': '03784e5343c0d8d0b4a7887d8289b690d4249f1d',
              'runs why': '21751b7acfbf8a213424761355029b0447fbe247',
              'span_dicts': 'c0e6e6e8287fd559904f733142d5f7a79e3557c1',
              'trace chrome': '884c4acbb10cc4db9e144910e2df83f6f3e93f50',
              'trace diff': '0f49f42f7a5858b2d0af48bfb17ed89e2f9ff86a',
              'trace spans --critical': 'c82d0080a0a85a90feb2677b563080dcbfffb2d6',
              'trace summary': 'e060f11e621de0038b295fea1a84543adde6f5e7',
              'trace wide': '419f0600eb123abafcebf91ebc2c4ff838b3e2d4'},
 'pair-seed0': {'emit_wide': '52ed3407296e5652146e858ec5eb5c2d53f199d6',
                'render_spans': 'f977ae6343567ede6223cfc9953e7053579480a6',
                'runs why': '992b842cb09b021c6c2198a934f89acac690a6b8',
                'span_dicts': '460eb8800079890db797544b2adf13f9efdaeaf4',
                'trace chrome': '6cba02ed8613883db855420eb4ac5c18ce166ec6',
                'trace diff': '0d49a2909859e0bd864a282d63415072fef1bcd3',
                'trace spans --critical': 'dc900e39176797f877133e4e43f27db1ad33b957',
                'trace summary': '04fecd619dfba4bfdc19b0b92ca9e21ac9f55ce9',
                'trace wide': '52ed3407296e5652146e858ec5eb5c2d53f199d6'},
 'pair-seed1': {'emit_wide': '5ea124bb014d1a1ad5d923e21796067daabb3a3a',
                'render_spans': 'b9bd5c6c51900df78926420143b06eef7d75463b',
                'runs why': 'e92bb190c7c405d4ad35141c2efd15efa1367853',
                'span_dicts': '42dea38087db6978d30c5d5ecb142ea3927419f4',
                'trace chrome': 'de45a3f8f8c7fedb0f9a1c6611acb46194e4c05a',
                'trace diff': '383a3abe2911a96fc0c3ac3359c244369680bef6',
                'trace spans --critical': 'aad7aab74431175230ec47ff6fe1dabb1495b81f',
                'trace summary': 'efb3eb389a769bcd383aa1068adea9170534d844',
                'trace wide': '5ea124bb014d1a1ad5d923e21796067daabb3a3a'},
 'rich-choppy': {'emit_wide': '06e9996fbc6a2097774c7f142259c3ef1aaf0856',
                 'render_spans': 'f34d081ca0d851fa91e9c93dc16c876cc9a9b6b6',
                 'runs why': '3a357fbbebf4fb67895f7add350788e2ee4965aa',
                 'span_dicts': '79ac579af0940fee13b1e8d063bce0d667405cfe',
                 'trace chrome': '8750a356f79e66c015f3f4b04dc749270203f7cd',
                 'trace diff': 'fac8b1e1d2daea757f66df8bab3fed2692ebdb75',
                 'trace spans --critical': '66b5b5e907706bd730583af3876c35ce185f0e33',
                 'trace summary': 'eec9be2cd91c0856a43e54c3bbfc57a84bebe869',
                 'trace wide': '06e9996fbc6a2097774c7f142259c3ef1aaf0856'}}


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()


def render_views(name: str, workdir) -> dict[str, str]:
    """Run one scenario with spans + wide attached; every view's text."""
    trace = str(workdir / f"{name}.jsonl")
    live_wide = str(workdir / f"{name}-wide.jsonl")
    chrome = str(workdir / f"{name}-chrome.json")
    results = []
    with open(trace, "w", encoding="utf-8") as trace_fh, \
            WideEventWriter(live_wide) as writer:
        for kwargs in SCENARIOS[name]():
            results.append(run_download(
                trace_path=trace_fh, spans=True, gauges=True, wide=writer,
                **kwargs,
            ))
    _cli("trace", "chrome", trace, "-o", chrome)
    wide_a, wide_b = (
        derive_wide(read_trace(trace), run_id=r.run_id) for r in results
    )
    with open(live_wide, encoding="utf-8") as fh:
        emitted = fh.read()
    with open(chrome, encoding="utf-8") as fh:
        chrome_text = fh.read()
    return {
        "render_spans": "\n".join(
            render_spans(r.spans, title=f"Spans [{r.run_id}]") for r in results
        ),
        "span_dicts": json.dumps([s.to_dict() for r in results for s in r.spans]),
        "emit_wide": emitted,
        "trace summary": _cli("trace", "summary", trace),
        "trace spans --critical": _cli(
            "trace", "spans", trace, "--critical", "--limit", "1000"
        ),
        "trace chrome": chrome_text,
        "trace wide": _cli("trace", "wide", trace),
        "trace diff": _cli("trace", "diff", trace),
        "runs why": render_why(explain(
            wide_a, wide_b,
            label_a=results[0].run_id, label_b=results[1].run_id,
        )),
    }


def digests(views: dict[str, str]) -> dict[str, str]:
    return {
        view: hashlib.sha1(text.encode("utf-8")).hexdigest()
        for view, text in views.items()
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_view_is_byte_identical_to_the_two_fold_parent(name, tmp_path):
    views = render_views(name, tmp_path)
    if name == "handoffs":
        # The scenario is only worth pinning while it still exercises
        # what it was built for.
        handoffs = [
            json.loads(line) for line in views["emit_wide"].splitlines()
            if '"kind":"handoff"' in line
        ]
        assert sum(h["status"] == "completed" for h in handoffs) >= 2
        assert any(h["status"] == "deferred" for h in handoffs)
    if name == "rich-choppy":
        assert '"kind":"gap"' in views["emit_wide"]
    # The live file and the offline derivation are the same bytes.
    assert views["emit_wide"] == views["trace wide"]
    assert digests(views) == GOLDEN[name]


if __name__ == "__main__":  # re-capture: prints the GOLDEN literal
    import pathlib
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint({
            name: digests(render_views(name, pathlib.Path(tmp)))
            for name in sorted(SCENARIOS)
        }, width=88)
