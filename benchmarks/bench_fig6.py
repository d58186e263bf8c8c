"""Fig. 6(a)-(f): performance gain over each Table III parameter.

One test per panel (``-k "b or f"`` picks some); the grids, titles and
paper gains come from :data:`repro.experiments.params.PANELS`.  What
the paper reports, and the shape each panel is held to:

- (a) chunk size 0.25-10 MB: SoftStage consistently beats Xftp; 1.59x
  at the smallest chunks rising to 1.96x at 10 MB (per-chunk
  control-plane overhead weighs more with smaller chunks);
- (b) encounter time 3/4/12 s: 1.55x rising to 1.77x — longer
  encounters mean fewer active-session migrations, so more airtime
  turns into content;
- (c) disconnection time 8/32/100 s: roughly flat ~1.7x — the VNF
  finishes staging well within even the shortest gap;
- (d) wireless packet loss 22/27/37%: 1.37x -> 1.77x — losses that
  escape link-layer retransmission are recovered from a closer
  location;
- (e) Internet bottleneck bandwidth 60/30/15 Mbps: the headline panel,
  1.77x exploding to 9.94x, because the loss-shaped bottleneck
  devastates the long-RTT end-to-end flow while SoftStage's short
  staging flow keeps the edge fed (especially through disconnections);
- (f) Internet latency 5-100 ms: 1.38x -> 2.3x — a slower-feeling
  Internet makes staging to a closer location pay more.
"""

import pytest

from benchmarks.conftest import run_once, strict_shapes
from repro.experiments.microbench import sweep
from repro.experiments.params import PANELS


def _best_is_past_the_smallest_chunk(rows):
    # The small-chunk end is diluted by per-chunk overheads (paper:
    # gain grows from 0.25 MB upward).
    assert max(rows, key=lambda r: r.gain) is not rows[0]


def _gain_rises_end_to_end(rows):
    assert rows[-1].gain > rows[0].gain, [row.gain for row in rows]


def _gain_is_flat(rows):
    # Max/min gain within a 1.6x band (the paper's panel is visually
    # flat; seeds add noise).
    gains = [row.gain for row in rows]
    assert max(gains) / min(gains) < 1.6, gains


def _xftp_time_grows(rows):
    # More loss never helps Xftp.
    assert rows[-1].xftp_time > rows[0].xftp_time


def _gain_explodes_as_the_internet_slows(rows):
    gains = [row.gain for row in rows]  # 60, 30, 15 Mbps
    assert gains[0] < gains[1] < gains[2], gains
    # The slow-Internet end is a multiple of the fast end.
    assert gains[2] > 2.0 * gains[0], gains


#: panel -> (first row SoftStage must win from, trend check that needs
#: the real download length to show).
SHAPES = {
    "a": (0, _best_is_past_the_smallest_chunk),
    "b": (0, _gain_rises_end_to_end),
    "c": (0, _gain_is_flat),
    "d": (0, _xftp_time_grows),
    "e": (0, _gain_explodes_as_the_internet_slows),
    # From 20 ms upward SoftStage clearly wins.
    "f": (2, _gain_rises_end_to_end),
}


@pytest.mark.parametrize("panel", PANELS)
def test_fig6(benchmark, profile, panel):
    series = run_once(benchmark, lambda: sweep(panel, profile))
    print()
    print(series.render())

    wins_from, trend = SHAPES[panel]
    for row in series.rows[wins_from:]:
        assert row.gain > 1.0, (row.label, row.gain)
    if strict_shapes(profile):
        trend(series.rows)
