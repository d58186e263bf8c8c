"""Golden simulated figures: fixed-seed downloads, pinned to the last bit.

The values were captured on the commit *before* the link's
serialization became arithmetic and the RTO timer a single re-armable
event (PR 12): event-count work on the packet path must not move a
simulated figure, so these compare with ``==``, not ``approx``.  A
change that legitimately alters the model re-captures them and says so.
"""

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.experiments.tracedriven import synthesize_traces
from repro.util import MB, ms

#: (system, seed) -> (download_time, per-chunk fetch durations) at 4 MB.
GOLDEN = {
    ("xftp", 0): (5.870071512672389,
        [2.585410175999936, 3.2846613366724533]),
    ("xftp", 1): (9.007675046736507,
        [5.684009295999806, 3.3236657507367013]),
    ("xftp", 2): (6.635653022768876,
        [3.027295553230725, 3.6083574695381513]),
    ("xftp", 3): (5.3325051138459845,
        [1.966274332307689, 3.3662307815382952]),
    ("softstage", 0): (7.152914268307739,
        [4.225182622769134, 2.807731645538605]),
    ("softstage", 1): (5.238417998769398,
        [3.827116518769181, 1.2913014800002167]),
    ("softstage", 2): (5.751997892923229,
        [4.1200503636922585, 1.5119475292309712]),
    ("softstage", 3): (4.054596238153532,
        [2.3474519759999963, 1.5871442621535352]),
}


@pytest.mark.parametrize("system, seed", sorted(GOLDEN))
def test_fixed_seed_figures_are_bit_identical(system, seed):
    result = run_download(
        system, params=MicrobenchParams(file_size=4 * MB), seed=seed
    )
    download_time, fetch_durations = GOLDEN[system, seed]
    assert result.download_time == download_time
    assert [o.duration for o in result.download.outcomes] == fetch_durations


#: (system, seed) -> (chunks completed, per-chunk fetch durations) over
#: the first 30 s of the referee's ``fig7_drive`` inputs: the 100 s
#: synthesized ``trace-2`` (synthesis seed 7 + seed), 2 MB chunks of an
#: unfinishable 512 MB target, 50 ms Internet RTT.  Captured on the
#: commit *before* the sender loop became a callback pump (PR 14).  Up
#: to 19 staging sessions stream from the origin server at once here,
#: which the 4 MB runs above never do, and they tie: at seed 5 one
#: session's CPU frees up at the very float (t = 3.508498339692261) at
#: which another session's ACK arrives.  A pump that pushes the first
#: one's pace event late (when its window reopened, not when its
#: segment left) *and* pumps the second inline regardless of the tie
#: swaps their emissions and moves the first two SoftStage durations by
#: 1.784 us; DESIGN.md §15 has the two rules that prevent it.
GOLDEN_DRIVE = {
    ("xftp", 0): (3,
        [7.899038189528108, 11.368752655249219, 10.40308829405243]),
    ("xftp", 5): (2,
        [9.107212687970451, 11.382262077951735]),
    ("softstage", 0): (6,
        [13.026548450751768, 5.71201050848655, 2.236488361177468,
         1.8143879015351594, 4.834228164261713, 1.568237314458223]),
    ("softstage", 5): (7,
        [4.445372426461485, 8.926459997420398, 2.4544538467704413,
         4.837502640498755, 5.020818141809901, 1.9645837710736025,
         1.7262774972275885]),
}


@pytest.mark.parametrize("system, seed", sorted(GOLDEN_DRIVE))
def test_trace_driven_drive_is_bit_identical(system, seed):
    trace = synthesize_traces(7 + seed, 100.0)["trace-2"]
    result = run_download(
        system,
        params=MicrobenchParams(
            file_size=512 * MB, chunk_size=2 * MB, internet_latency=ms(50)
        ),
        seed=seed,
        coverage=trace.to_coverage(["ap-A", "ap-B"]),
        deadline=30.0,
    )
    chunks_completed, fetch_durations = GOLDEN_DRIVE[system, seed]
    assert result.download.chunks_completed == chunks_completed
    assert [o.duration for o in result.download.outcomes] == fetch_durations


#: The origin-to-edge staging latencies of the first 30 s at seed 2, in
#: completion order (same inputs, same commit as ``GOLDEN_DRIVE``).
#: The lock-step staging sessions free their CPUs at identical floats;
#: unless each pace event keeps the place its segment's emission took
#: in the kernel's push order, two sessions swap at t = 1.455 s and 15
#: of these 18 move by up to 123 us — with every fetch duration, and so
#: the referee's ``sim_digest``, unchanged.
GOLDEN_STAGING_LATENCIES = [
    1.3648990159999306, 1.364921023999933, 1.3649510399999327,
    1.3649694719999323, 1.3649873759999323, 1.3650300319999316,
    1.3650721599999311, 1.3650905919999308, 1.3656403279999445,
    1.365898255999944, 1.3666380239998843, 1.671325934153785,
    1.6714235981537842, 1.6714326559998582, 1.6714467581537855,
    1.671698846153785, 1.9727037680000015, 1.9732287440000018,
]


def test_trace_driven_staging_latencies_are_bit_identical():
    trace = synthesize_traces(7 + 2, 100.0)["trace-2"]
    result = run_download(
        "softstage",
        params=MicrobenchParams(
            file_size=512 * MB, chunk_size=2 * MB, internet_latency=ms(50)
        ),
        seed=2,
        coverage=trace.to_coverage(["ap-A", "ap-B"]),
        deadline=30.0,
        instrument=True,
    )
    assert result.metrics.samples("staging.latency") == GOLDEN_STAGING_LATENCIES
