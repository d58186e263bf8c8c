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
from repro.util import MB

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
