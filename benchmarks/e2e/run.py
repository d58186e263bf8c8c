"""The referee benchmark's one command.

    python3 benchmarks/e2e/run.py --seed 0                 # all four workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace         # + per-layer pass
    python3 benchmarks/e2e/run.py --workload bulk_pair --seed 3 \\
        --seconds 20 --trace 0                             # one driver run
    python3 benchmarks/e2e/run.py --compare A.json B.json  # before/after

(``python -m benchmarks.e2e`` is the same program.)  Each workload runs
in a fresh child interpreter, one after another, so ``setup_s`` covers
imports and ``peak_rss_mb`` is the workload's own.  The parent prints
every metric by name with its unit and sample count, then — as the
last line of standard output — one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import spec as spec_mod  # noqa: E402
from benchmarks.e2e.reference import reference_round  # noqa: E402
from benchmarks.e2e.spec import ROOT, WORK_DIR, load_spec  # noqa: E402

#: Fresh interpreters that time set-up in a full run (the measuring
#: child plus two that only set up); ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Share of ``--seconds`` a ``--trace 1`` run spends on untraced
#: iterations (the base of ``trace.overhead_ratio``) before the traced one.
UNTRACED_SHARE_WHEN_TRACING = 0.3

#: Host time spent on the reference loop before each iteration, as a
#: share of the previous iteration's wall time (at least one round).
REFERENCE_SHARE = 0.15

#: Reference rounds timed right after set-up (they correct ``setup_s``
#: and the first iteration).
SETUP_REFERENCE_ROUNDS = 10

#: Seconds per reference round that host times are scaled to: about
#: what the loop takes on the 2-core sandbox at the seed commit.  Only
#: a scale factor — it keeps corrected seconds close to raw seconds.
NOMINAL_ROUND_S = 0.040

RESULTS_SCHEMA = 1


# -- the child: one workload in one fresh interpreter ---------------------------


def child_main(args) -> int:
    spec_mod.bootstrap_path()
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick, args.workdir)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    slot = reference_slot(min_rounds=SETUP_REFERENCE_ROUNDS)
    record: dict = {
        "setup_raw_s": setup_s,
        "setup_s": corrected(setup_s, slot),
        "paper_gain": workload.paper_gain,
    }
    if args.child == "measure":
        record.update(measure(workload, args, slot))
    print(json.dumps(record))
    return 0


def reference_slot(min_seconds: float = 0.0, min_rounds: int = 1):
    """Time the reference loop: ``(seconds, rounds)``."""
    seconds, rounds = 0.0, 0
    while rounds < min_rounds or seconds < min_seconds:
        seconds += reference_round()
        rounds += 1
    return seconds, rounds


def corrected(raw_s: float, slot) -> float:
    """Host seconds scaled to the nominal speed by a reference slot."""
    seconds, rounds = slot
    return raw_s * NOMINAL_ROUND_S / (seconds / rounds)


def measure(workload, args, slot) -> dict:
    """Timed iterations with tracing off, then (``--trace 1``) one
    traced iteration for the per-layer numbers.  ``slot`` is the
    reference slot timed just before the first iteration."""
    budget = args.seconds
    if args.trace:
        budget *= UNTRACED_SHARE_WHEN_TRACING
    iterations = []
    reference = []  # the slot timed before each iteration
    started = perf_counter()
    while True:
        gc.collect()
        reference.append(slot)
        iterations.append(workload.iterate())
        elapsed = perf_counter() - started
        # Start another only if at least half of it fits the budget.
        if args.quick or elapsed + 0.5 * elapsed / len(iterations) > budget:
            break
        slot = reference_slot(REFERENCE_SHARE * iterations[-1].wall_s)
    record = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "iterations": [iteration_record(it) for it in iterations],
        "reference": reference,
    }
    if args.trace:
        record.update(traced_pass(workload, iterations))
    return record


def iteration_record(iteration) -> dict:
    return {
        "wall_s": iteration.wall_s,
        "attempted": iteration.attempted,
        "failures": iteration.failures,
        "digest": iteration.digest,
        "gain": iteration.gain,
        "counts": iteration.counts,
        "parts": iteration.parts,
    }


def traced_pass(workload, iterations) -> dict:
    from benchmarks.e2e.layers import micro_drivers, per_layer_metrics
    from benchmarks.e2e.tracer import Tracer

    gc.collect()
    # Installed before the scenario is built: sessions and hosts bind
    # their handlers at construction.
    with Tracer() as tracer:
        traced = workload.iterate(instrument=True)
    walls = [it.wall_s for it in iterations]
    parts = {
        name: statistics.median(it.parts[name] for it in iterations)
        for name in iterations[0].parts
    }
    metrics = per_layer_metrics(
        tracer, traced, statistics.median(walls), parts, micro_drivers(),
        workload.paper_gain,
    )
    return {
        "traced": iteration_record(traced),
        "per_layer": metrics,
        "trace": tracer.to_json(),
    }


# -- the parent: spawn, merge, check, print -------------------------------------


def spawn(mode: str, name: str, args, workdir: Path) -> dict:
    """Run one child to completion; its record is its last stdout line."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", mode, "--workload", name, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.quick:
        command.append("--quick")
    # A fixed hash seed keeps dict/set collision patterns — and so host
    # time — the same from one child to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{name}: {mode} child exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, workdir: Path) -> dict:
    """One workload's full record: set-up samples, the measuring child,
    and the checks that need more than one iteration."""
    extra = 0 if args.quick else SETUP_SAMPLES - 1
    children = [spawn("setup", name, args, workdir) for _ in range(extra)]
    child = spawn("measure", name, args, workdir)
    children.append(child)

    iterations = child["iterations"]
    every = iterations + ([child["traced"]] if "traced" in child else [])
    failures = [f for it in every for f in it["failures"]]
    digest = iterations[0]["digest"]
    for index, it in enumerate(every):
        if it["digest"] != digest:
            which = ("traced iteration" if index == len(iterations)
                     else f"iteration {index}")
            failures.append(
                f"{which}: sim_digest {it['digest'][:12]} differs from the "
                f"first ({digest[:12]}) under the same seed"
            )
    walls = [it["wall_s"] for it in iterations]
    # Drift-corrected: the ratio of sums over the whole timed loop
    # (steadier than any per-iteration ratio); the per-iteration
    # values are kept as the samples --compare reads.
    wall = sample_stats([
        corrected(raw, slot) for raw, slot in zip(walls, child["reference"])
    ])
    wall["value"] = corrected(
        sum(walls) / len(walls),
        [sum(column) for column in zip(*child["reference"])],
    )
    record = {
        "end_to_end": {
            "wall_s": wall,
            "peak_rss_mb": sample_stats([child["peak_rss_mb"]]),
            "setup_s": sample_stats([c["setup_s"] for c in children]),
        },
        "raw": {
            "wall_s": sample_stats(walls),
            "setup_s": sample_stats([c["setup_raw_s"] for c in children]),
        },
        "gain": iterations[0]["gain"],
        "paper_gain": child["paper_gain"],
        "sim_digest": digest,
        "counts": iterations[0]["counts"],
        "ops_attempted": sum(it["attempted"] for it in every),
        "failures": failures,
    }
    for key in ("per_layer", "trace"):
        if key in child:
            record[key] = child[key]
    return record


def sample_stats(samples: list[float]) -> dict:
    return {
        "value": statistics.median(samples), "n": len(samples),
        "min": min(samples), "max": max(samples), "samples": samples,
    }


def cross_checks(records: dict) -> None:
    """Attachments must not perturb: ``obs_live`` runs ``bulk_pair``'s
    exact run list, so their simulated figures must be identical."""
    bulk, live = records.get("bulk_pair"), records.get("obs_live")
    if bulk and live and bulk["sim_digest"] != live["sim_digest"]:
        live["failures"].append(
            "simulated figures differ from bulk_pair's: an attachment "
            "perturbed the run"
        )


def ops_failed(record: dict) -> int:
    return min(len(record["failures"]), record["ops_attempted"])


def print_report(records: dict, spec: dict, args) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"referee benchmark  seed={args.seed}  seconds={args.seconds:g}"
          f"{'  quick' if args.quick else ''}  claim=null")
    for name, record in records.items():
        print(f"\n== {name} ==")
        for metric in spec["end_to_end"]:
            stats = record["end_to_end"][metric["name"]]
            print(f"  {metric['name']:<14} {stats['value']:>12.4f} "
                  f"{metric['unit']:<3} n={stats['n']} "
                  f"(min {stats['min']:.4f}, max {stats['max']:.4f})")
        for raw_name, stats in record["raw"].items():
            print(f"  {'raw ' + raw_name:<14} {stats['value']:>12.4f} s   "
                  f"median of n={stats['n']}, uncorrected "
                  f"(min {stats['min']:.4f}, max {stats['max']:.4f})")
        gain, paper = record["gain"], record["paper_gain"]
        print(f"  {'gain':<14} {gain:>12.4f} ratio, simulated "
              f"(paper {paper:g}, experiments.paper_gain_err "
              f"{abs(gain - paper) / paper:.3f})")
        print(f"  {'sim_digest':<14} {record['sim_digest']}")
        print(f"  {'ops_attempted':<14} {record['ops_attempted']:>12d}")
        print(f"  {'ops_failed':<14} {ops_failed(record):>12d}")
        for failure in record["failures"]:
            print(f"    FAILED: {failure}")
        for metric_name, value in sorted(record.get("per_layer", {}).items()):
            print(f"  {metric_name:<34} {value:>16.6g} {units[metric_name]}")
    bulk, live = records.get("bulk_pair"), records.get("obs_live")
    if bulk and live:
        ratio = (live["end_to_end"]["wall_s"]["value"]
                 / bulk["end_to_end"]["wall_s"]["value"] - 1.0)
        print(f"\nobs.live_overhead_ratio = {ratio:+.4f} host_ratio "
              f"(wall_s obs_live / wall_s bulk_pair - 1)")


def write_results(records: dict, args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    slim = {}
    for name, record in records.items():
        trace = record.pop("trace", None)
        if trace is not None:
            with open(out / f"trace-{name}.json", "w", encoding="utf-8") as fh:
                json.dump(trace, fh)
        slim[name] = dict(record, ops_failed=ops_failed(record))
    payload = {
        "schema": RESULTS_SCHEMA, "claim": None, "seed": args.seed,
        "seconds": args.seconds, "quick": args.quick, "workloads": slim,
    }
    with open(out / "results.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    print(f"\nresults written to {out / 'results.json'}")


def final_line(records: dict, spec: dict, args) -> str:
    """The contract's last line: one JSON object, the named metrics."""
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, record in records.items():
        prefix = "" if args.workload else f"{name}."
        for metric in listed:
            value = record[source][metric["name"]]
            if isinstance(value, dict):
                value = value["value"]
            metrics[prefix + metric["name"]] = {
                "value": value, "unit": metric["unit"],
            }
    failed = sum(ops_failed(r) for r in records.values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["ops_attempted"] for r in records.values()),
        "failed": failed,
        "metrics": metrics,
    })


def parent_main(args, spec: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r} (have: "
                  f"{', '.join(names)})", file=sys.stderr)
            return 2
        names = [args.workload]
    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        records = {name: run_workload(name, args, workdir) for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cross_checks(records)
    print_report(records, spec, args)
    line = final_line(records, spec, args)
    write_results(records, args)
    print(line)
    return 0 if all(not r["failures"] for r in records.values()) else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="host seconds of timed iterations per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced iteration per workload and "
                             "report the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="4 MB inputs, one iteration, same metric names")
    parser.add_argument("--out", default=str(WORK_DIR / "out"),
                        help="directory for results.json and trace-*.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results files against the bounds")
    parser.add_argument("--child", choices=("measure", "setup"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        from benchmarks.e2e.compare import compare_files

        return compare_files(args.compare[0], args.compare[1], spec)
    if args.child:
        return child_main(args)
    return parent_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
