"""``--compare A.json B.json``: the before/after tool.

Reads two ``results.json`` files and judges B against A with the
bounds of ``BENCHMARK.json`` (names, units, directions and bounds all
come from that file).  One row per end-to-end metric × workload:

- ``ok``          B's median is no worse than A's by more than the bound;
- ``worse``       it is;
- ``unresolved``  the run-to-run spread of either side is wider than
                  the bound, so the medians cannot settle it — unless
                  every B sample beats every A sample.

Simulated figures are exact under a fixed seed, so for two files of
the same seed ``sim_digest``, ``gain`` and every count must be
identical; each one that moved is listed.
"""

from __future__ import annotations

import json
import statistics

#: Per-layer units measured on the host clock.  Per-layer metrics in
#: any other unit come from the simulated clock or from counters and
#: repeat exactly under a fixed seed, so they must be identical.
HOST_UNITS = frozenset({"s", "us", "1/s", "host_ratio"})

#: ``setup_s`` only counts as worse when it also grew by this much.
SETUP_FLOOR_S = 0.5


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one sample).

    Quartiles are interpolated inside the data (``inclusive``): a file
    holds as few as two iterations, and extrapolated quartiles would
    call every such pair unresolved.
    """
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(samples)


def judge(metric: dict, a: dict, b: dict) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` for one metric on one workload."""
    lower = metric["better"] == "lower"
    base, new = a["value"], b["value"]
    worse_by = ((new - base) if lower else (base - new)) / base
    widest = max(spread(a["samples"]), spread(b["samples"]))
    if lower:
        separated = max(b["samples"]) < min(a["samples"])
    else:
        separated = min(b["samples"]) > max(a["samples"])
    if widest > metric["bound"] and not separated:
        return "unresolved", worse_by, widest
    worse = worse_by > metric["bound"]
    if metric["name"] == "setup_s" and abs(new - base) < SETUP_FLOOR_S:
        worse = False
    return ("worse" if worse else "ok"), worse_by, widest


def exact_differences(spec: dict, a: dict, b: dict) -> list[str]:
    """Every simulated figure or count that is not identical."""
    moved = []
    if a["sim_digest"] != b["sim_digest"]:
        moved.append(f"sim_digest {a['sim_digest'][:12]} -> "
                     f"{b['sim_digest'][:12]}")
    if a["gain"] != b["gain"]:
        moved.append(f"gain {a['gain']!r} -> {b['gain']!r}")
    for name in sorted(set(a["counts"]) | set(b["counts"])):
        before, after = a["counts"].get(name), b["counts"].get(name)
        if before != after:
            moved.append(f"{name} {before!r} -> {after!r}")
    if "per_layer" in a and "per_layer" in b:
        for metric in spec["per_layer"]:
            if metric["unit"] in HOST_UNITS:
                continue
            before = a["per_layer"].get(metric["name"])
            after = b["per_layer"].get(metric["name"])
            if before != after:
                moved.append(f"{metric['name']} {before!r} -> {after!r}")
    return moved


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    same_inputs = (a["seed"], a["quick"]) == (b["seed"], b["quick"])
    print(f"A = {path_a} (seed {a['seed']})   B = {path_b} (seed {b['seed']})")
    print(f"{'workload':<12} {'metric':<12} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    bad = False
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            ma = wa["end_to_end"][metric["name"]]
            mb = wb["end_to_end"][metric["name"]]
            verdict, worse_by, widest = judge(metric, ma, mb)
            bad = bad or verdict == "worse"
            print(f"{name:<12} {metric['name']:<12} {ma['value']:>12.4f} "
                  f"{mb['value']:>12.4f} {worse_by:>+9.1%} "
                  f"{metric['bound']:>6.0%} {widest:>7.1%}  {verdict}")
        for side, record in (("A", wa), ("B", wb)):
            if record["ops_failed"]:
                bad = True
                print(f"{name:<12} {side}: {record['ops_failed']} of "
                      f"{record['ops_attempted']} operations failed")
        if not same_inputs:
            continue
        moved = exact_differences(spec, wa, wb)
        bad = bad or bool(moved)
        print(f"{name:<12} sim_digest, gain and counts: "
              f"{'identical' if not moved else 'DIFFERENT'}")
        for line in moved:
            print(f"{'':<12}   {line}")
    if not same_inputs:
        print("different seeds or sizes: simulated figures not compared")
    return 1 if bad else 0
