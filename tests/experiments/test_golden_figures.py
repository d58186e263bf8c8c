"""Golden simulated figures: fixed-seed downloads, pinned to the last bit.

The values were captured on the commit *before* the link's
serialization became arithmetic and the RTO timer a single re-armable
event (PR 12): event-count work on the packet path must not move a
simulated figure, so these compare with ``==``, not ``approx``.  A
change that legitimately alters the model re-captures them and says so.
"""

import pytest

from repro.core.handoff import ChunkAwarePolicy, RssGreedyPolicy
from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.experiments.tracedriven import synthesize_traces
from repro.mobility.coverage import overlapping_coverage
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
    # The single-stream baseline, captured on the commit *before* the
    # four clients became one chassis (PR 19), as were the policy and
    # handoff tables below: the order in which a client's parts
    # subscribe to scans and attaches decides whether a policy's
    # attach-time staging signal or the session-migration packets reach
    # the wireless queue first, so a wiring change must not move these.
    ("endtoend", 0): (4.715137795692158,
        [4.715137795692158]),
    ("endtoend", 1): (6.590360159999764,
        [6.590360159999764]),
}


@pytest.mark.parametrize("system, seed", sorted(GOLDEN))
def test_fixed_seed_figures_are_bit_identical(system, seed):
    result = run_download(
        system, params=MicrobenchParams(file_size=4 * MB), seed=seed
    )
    download_time, fetch_durations = GOLDEN[system, seed]
    assert result.download_time == download_time
    assert [o.duration for o in result.download.outcomes] == fetch_durations


#: (policy, seed, num_edges) -> (download_time, per-chunk fetch
#: durations): SoftStage under each non-default staging policy, 8 MB in
#: 1 MB chunks on the Fig. 6 coverage.
GOLDEN_POLICY = {
    ("rich", 0, 2): (9.39365536221039,
        [2.01860166461539, 0.7362717483075172, 1.3110152861537157,
         0.557429779077034, 1.1798626929231686, 1.2227838178462243,
         1.2073961062097158, 0.6802942670776257]),
    ("rich", 0, 3): (9.39365536221039,
        [2.01860166461539, 0.7362717483075172, 1.3110152861537157,
         0.557429779077034, 1.1798626929231686, 1.2227838178462243,
         1.2073961062097158, 0.6802942670776257]),
    ("rich", 1, 2): (8.435634793231218,
        [1.5390037483076462, 1.0563363452306134, 0.8948628030767565,
         0.82499612123073, 0.7341595329231669, 0.6919756867693305,
         1.4957092424616052, 0.7185913132313706]),
    ("rich", 1, 3): (8.435634793231218,
        [1.5390037483076462, 1.0563363452306134, 0.8948628030767565,
         0.82499612123073, 0.7341595329231669, 0.6919756867693305,
         1.4957092424616052, 0.7185913132313706]),
    ("mobility", 0, 2): (8.681552867077368,
        [2.077818028307689, 0.8239093833844455, 0.8909200775382953,
         0.883676099692388, 1.1033393655385417, 0.5380217790770327,
         0.5904338098462629, 1.2934343236927148]),
    ("mobility", 0, 3): (8.681552867077368,
        [2.077818028307689, 0.8239093833844455, 0.8909200775382953,
         0.883676099692388, 1.1033393655385417, 0.5380217790770327,
         0.5904338098462629, 1.2934343236927148]),
    ("mobility", 1, 2): (8.190816904615394,
        [1.2023672221538504, 0.8558864203076142, 0.8778125833844252,
         0.8708092732306358, 0.9522515107693268, 0.9848051064616214,
         0.8322269569231624, 1.134657831384759]),
    ("mobility", 1, 3): (8.190816904615394,
        [1.2023672221538504, 0.8558864203076142, 0.8778125833844252,
         0.8708092732306358, 0.9522515107693268, 0.9848051064616214,
         0.8322269569231624, 1.134657831384759]),
    ("predictive", 0, 2): (9.450394769149675,
        [2.01858233661539, 0.7641035218459815, 1.1464370227691143,
         0.967456774449925, 0.745071614153936, 1.015606158153922,
         1.2076243329233014, 1.1055130082381055]),
    ("predictive", 0, 3): (9.450394769149675,
        [2.01858233661539, 0.7641035218459815, 1.1464370227691143,
         0.967456774449925, 0.745071614153936, 1.015606158153922,
         1.2076243329233014, 1.1055130082381055]),
    ("predictive", 1, 2): (8.435634793231218,
        [1.5390037483076462, 1.0563363452306134, 0.8948628030767565,
         0.82499612123073, 0.7341595329231669, 0.6919756867693305,
         1.4957092424616052, 0.7185913132313706]),
    ("predictive", 1, 3): (11.641062463387088,
        [3.7849754756922613, 1.2523061710769743, 0.7736381858462424,
         0.6707654910770193, 1.8797545372311433, 1.3310700123081922,
         0.9253324836929693, 0.5432201064622859]),
}

#: (policy, seed) -> the same over three edges with 4 s encounters and
#: 2 s gaps, so every run crosses several attaches with staging and
#: fetch sessions live.
GOLDEN_POLICY_SHORT = {
    ("rich", 0): (19.634372597537894,
        [2.01860166461539, 0.7362717483075172, 4.668371905230943,
         1.2055136172311833, 4.956823015999918, 0.7121310166160626,
         0.6466704141545456, 4.209989215382333]),
    ("rich", 1): (15.680387804309193,
        [1.5390037483076462, 1.0563363452306134, 0.8948628030767565,
         4.261320852308108, 0.6446804578468672, 4.985868619076346,
         0.7254910960006757, 1.092823882462179]),
    ("mobility", 0): (14.20918611815448,
        [2.077818028307689, 0.8239093833844455, 0.8909200775382953,
         2.8456979893012635, 0.7321239963077861, 0.9083300658464966,
         1.1695951577451176, 4.280791419723387]),
    ("mobility", 1): (15.02282638646253,
        [1.2023672221538504, 0.8558864203076142, 0.8778125833844252,
         4.458793184615648, 0.6933381372312901, 0.9896266467698887,
         4.465702262153, 0.9992999298468117]),
    ("predictive", 0): (20.04281502834699,
        [2.01858233661539, 0.7641035218459815, 4.624918057846328,
         1.0395821920003536, 0.920582152616058, 4.232300964922514,
         0.7213759089237488, 5.241369893576614]),
    ("predictive", 1): (25.607237595076587,
        [3.7849754756922613, 4.604073222154156, 1.211528571077503,
         4.605827025230498, 0.9556879766160051, 4.212857385844142,
         1.0433760787676007, 4.708911859694421]),
}


def _policy_figures(policy, seed, num_edges, **coverage):
    result = run_download(
        "softstage",
        params=MicrobenchParams(
            file_size=8 * MB, chunk_size=1 * MB, **coverage
        ),
        seed=seed,
        num_edges=num_edges,
        policy=policy,
    )
    return (
        result.download_time, [o.duration for o in result.download.outcomes]
    )


@pytest.mark.parametrize("policy, seed, num_edges", sorted(GOLDEN_POLICY))
def test_policy_figures_are_bit_identical(policy, seed, num_edges):
    assert (
        _policy_figures(policy, seed, num_edges)
        == GOLDEN_POLICY[policy, seed, num_edges]
    )


@pytest.mark.parametrize("policy, seed", sorted(GOLDEN_POLICY_SHORT))
def test_policy_figures_across_handoffs_are_bit_identical(policy, seed):
    assert _policy_figures(
        policy, seed, 3, encounter_time=4.0, disconnection_time=2.0
    ) == GOLDEN_POLICY_SHORT[policy, seed]


#: (handoff policy, staging policy) -> (download_time, per-chunk fetch
#: durations) on the §IV-D overlapping coverage (12 s encounters, 3 s
#: overlap) at 16 MB, seed 0.
GOLDEN_HANDOFF = {
    (RssGreedyPolicy, None): (21.58977434707688,
        [4.251065708307566, 2.135931256281596, 1.287370741538668,
         2.060929799156943, 3.585694947638995, 2.2277776569077776,
         1.5557107636889818, 4.005293473556353]),
    (RssGreedyPolicy, "rich"): (17.515839154461094,
        [3.0210618873845236, 1.6774850929230576, 2.0164522886155654,
         2.0241598123081666, 1.6248736603089746, 3.270763860306877,
         1.6633969353858742, 1.737645617228054]),
    (RssGreedyPolicy, "predictive"): (19.37070622338181,
        [3.0208826498460613, 2.1686519895384735, 2.341227717538602,
         1.5190307120012339, 1.5519435120013867, 3.879912714460051,
         2.1153350879990995, 2.293721839996902]),
    (ChunkAwarePolicy, None): (20.640979898454596,
        [4.251065708307566, 2.135931256281596, 1.287370741538668,
         2.060929799156943, 3.747174828253902, 2.7634155046147715,
         2.0946045969197797, 1.8204874633813724]),
    (ChunkAwarePolicy, "rich"): (17.810235993843943,
        [3.0210618873845236, 1.6774850929230576, 2.0164522886155654,
         2.0241598123081666, 1.6248736603089746, 3.2635504535372366,
         2.2490730793852265, 1.4535797193811923]),
    (ChunkAwarePolicy, "predictive"): (18.22937583261221,
        [3.0208826498460613, 2.1686519895384735, 2.341227717538602,
         1.5190307120012339, 1.5519435120013867, 3.2356920738439676,
         2.26876638461518, 1.6431807932273053]),
}


@pytest.mark.parametrize("handoff, policy", list(GOLDEN_HANDOFF))
def test_handoff_policy_figures_are_bit_identical(handoff, policy):
    result = run_download(
        "softstage",
        params=MicrobenchParams(file_size=16 * MB, encounter_time=12.0),
        seed=0,
        coverage=overlapping_coverage(
            ["ap-A", "ap-B"], encounter_time=12.0, overlap_time=3.0,
            total_time=24 * 3600.0,
        ),
        handoff_policy=handoff(),
        policy=policy,
    )
    download_time, fetch_durations = GOLDEN_HANDOFF[handoff, policy]
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


#: (policy, seed) -> the same 30 s drive for SoftStage under each
#: non-default staging policy.
GOLDEN_DRIVE_POLICY = {
    ("rich", 0): (6,
        [8.029227849609576, 4.7724476706817, 5.485745865409028,
         2.3318952134064155, 2.303618608612375, 5.508400756339032]),
    ("rich", 5): (6,
        [12.90068084111237, 2.511521014770423, 4.607176634345766,
         4.679985999656662, 1.7480335422627924, 2.1330142455359393]),
    ("mobility", 0): (6,
        [13.026548450751768, 5.71201050848655, 2.236488361177468,
         1.8143879015351594, 4.834228164261713, 1.568237314458223]),
    ("mobility", 5): (7,
        [4.445372426461485, 8.926459997420398, 2.4544538467704413,
         4.837502640498755, 5.020818141809901, 1.9645837710736025,
         1.7262774972275885]),
    ("predictive", 0): (6,
        [8.029219013528092, 4.660243012609435, 6.115846690638948,
         2.2322760916891475, 2.094323989456363, 5.736325025284806]),
    ("predictive", 5): (6,
        [12.887061540189297, 1.5501085046167713, 5.094276906961145,
         1.5489912381505349, 4.750584236580561, 2.1340316104582406]),
}


@pytest.mark.parametrize("policy, seed", sorted(GOLDEN_DRIVE_POLICY))
def test_trace_driven_policy_drive_is_bit_identical(policy, seed):
    trace = synthesize_traces(7 + seed, 100.0)["trace-2"]
    result = run_download(
        "softstage",
        params=MicrobenchParams(
            file_size=512 * MB, chunk_size=2 * MB, internet_latency=ms(50)
        ),
        seed=seed,
        coverage=trace.to_coverage(["ap-A", "ap-B"]),
        deadline=30.0,
        policy=policy,
    )
    chunks_completed, fetch_durations = GOLDEN_DRIVE_POLICY[policy, seed]
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
