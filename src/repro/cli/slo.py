"""``repro slo``: judge registry records against the SLO set; ``check``
exits on the verdict ``GET /slo`` serves (both call ``check_registry``)."""

from __future__ import annotations

import json

from repro.cli import command, json_flag, registry_dir_flag
from repro.obs.registry import RunRegistry
from repro.obs.slo import (
    DEFAULT_SLOS,
    AlertLog,
    AlertRecord,
    check_payload,
    check_registry,
    parse_slos,
    render_check,
    violations,
)


def cmd_slo_check(args) -> None:
    registry = RunRegistry(args.registry_dir)
    try:
        slos = parse_slos(args.slo) if args.slo else DEFAULT_SLOS
    except ValueError as exc:  # `GET /slo` answers 400 with the same text
        raise SystemExit(str(exc)) from None
    per_record = check_registry(registry, slos, args.run)
    if not per_record:
        raise SystemExit(f"no records to check in {registry.path}")
    failed = [
        (rec_id, result)
        for rec_id, results in per_record for result in violations(results)
    ]
    log = AlertLog(registry.directory)
    if failed and not args.no_alerts:
        for rec_id, result in failed:
            log.append(AlertRecord(
                slo=result.slo.spec(), run=rec_id,
                value=result.value, threshold=result.slo.threshold,
            ))
    if args.json:
        print(json.dumps(check_payload(per_record), indent=2,
                         sort_keys=True))
    else:
        print(render_check(per_record))
        if failed and not args.no_alerts:
            print(f"{len(failed)} alert(s) appended to {log.path}")
    if failed:
        raise SystemExit(1)


def cmd_slo_alerts(args) -> None:
    log = AlertLog(args.registry_dir)
    alerts = log.read()
    if args.json:
        print(json.dumps([a.to_json() for a in alerts], indent=2,
                         sort_keys=True))
        return
    if not alerts:
        print(f"no alerts in {log.path}")
        return
    for alert in alerts:
        print(alert.describe())


def register(subparsers) -> None:
    slo = subparsers.add_parser(
        "slo", help="service-level objectives over runs"
    )
    registry_dir_flag(slo)
    ssub = slo.add_subparsers(dest="slo_command", required=True)

    scheck = command(
        ssub, "check", cmd_slo_check,
        help="judge registry records against the SLO set "
             "(exit 1 on any violation)",
    )
    scheck.add_argument("run", nargs="*",
                        help="rec/run ids to check (default: every record)")
    scheck.add_argument("--slo", action="append", metavar="SPEC",
                        help="SLO spec like 'gain >= 1.2' or "
                             "'p95(stage_latency) <= 2.0' (repeatable; "
                             "default: the paper-shape set)")
    json_flag(scheck, "results", "/slo")
    scheck.add_argument("--no-alerts", action="store_true",
                        help="don't append violations to alerts.jsonl")

    salerts = command(ssub, "alerts", cmd_slo_alerts,
                      help="list the alert log")
    json_flag(salerts)
