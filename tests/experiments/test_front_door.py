"""The front door's shape: every ``python -m repro`` parser pinned as
data, the import diet, and the size of ``__main__.py`` and ``cli/``.

The parser table was captured before ``__main__.py`` was split into
``repro/cli/`` families: moving a parser must not move an option, a
default or a help string.  Rendered ``--help`` text differs across
Python versions; the action table does not.  One row is not the
parent's: the top-level command order, which the split groups by family
(``handoff`` and ``traces`` now list beside the other experiments).  A
change that adds or alters a flag on purpose re-captures the table (run
this file as a script).
"""

import argparse
import ast
import pathlib
import pprint
import subprocess
import sys

import pytest

import repro.__main__ as front_door


class _Captured(Exception):
    pass


def _top_parser(monkeypatch) -> argparse.ArgumentParser:
    """The parser ``main`` builds (it parses with it, never returns it)."""
    seen = []

    def capture(self, args=None, namespace=None):
        seen.append(self)
        raise _Captured

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Captured):
        front_door.main([])
    monkeypatch.undo()
    return seen[0]


#: What argparse gives an action that sets nothing; rows omit these.
_UNSET = {
    "flags": [], "kind": "_StoreAction", "nargs": None, "const": None,
    "default": None, "type": None, "choices": None, "required": False,
    "metavar": None, "help": None,
}


def _describe(action: argparse.Action) -> dict:
    row = {
        "flags": list(action.option_strings),
        "dest": action.dest,
        "kind": type(action).__name__,
        "nargs": action.nargs,
        "const": action.const,
        "default": action.default,
        "type": action.type.__name__ if action.type else None,
        "choices": list(action.choices) if action.choices else None,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }
    return {
        key: value for key, value in row.items()
        if key == "dest" or value != _UNSET[key]
    }


def parser_table(parser: argparse.ArgumentParser, path=()) -> dict:
    """``{"<command path>": [action row, ...]}`` for a parser tree."""
    table = {}
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            rows.append({
                "dest": action.dest,
                "required": action.required,
                "subcommands": [
                    (choice.dest, choice.help)
                    for choice in action._choices_actions
                ],
            })
            for name, child in action.choices.items():
                table.update(parser_table(child, path + (name,)))
        else:
            rows.append(_describe(action))
    table[" ".join(path)] = rows
    return table


#: command path ("" = the top-level parser) -> its actions, in order.
PARSERS = {'demo': [{'flags': ['--file-mb'],
           'dest': 'file_mb',
           'default': 32.0,
           'type': 'float'},
          {'flags': ['--seed'], 'dest': 'seed', 'default': 0, 'type': 'int'},
          {'flags': ['--trace'],
           'dest': 'trace',
           'metavar': 'PATH',
           'help': 'record both runs into one JSONL trace'},
          {'flags': ['--spans'],
           'dest': 'spans',
           'kind': '_StoreTrueAction',
           'nargs': 0,
           'const': True,
           'default': False,
           'help': 'derive and print causal span summaries'},
          {'flags': ['--gauges'],
           'dest': 'gauges',
           'kind': '_StoreTrueAction',
           'nargs': 0,
           'const': True,
           'default': False,
           'help': 'install the flight recorder and append both runs (with '
                   'gauge timelines) to the run registry'},
          {'flags': ['--audit'],
           'dest': 'audit',
           'kind': '_StoreTrueAction',
           'nargs': 0,
           'const': True,
           'default': False,
           'help': 'run the invariant auditor over both runs'},
          {'flags': ['--registry-dir'],
           'dest': 'registry_dir',
           'metavar': 'DIR',
           'help': 'registry directory (default .repro_runs, or '
                   'REPRO_RUNS_DIR)'},
          {'flags': ['--policy'],
           'dest': 'policy',
           'metavar': 'NAME',
           'help': 'staging policy for the SoftStage run (reactive, rich, '
                   'mobility, predictive; default: reactive Eq. 1)'},
          {'flags': ['--emit-wide'],
           'dest': 'emit_wide',
           'nargs': '?',
           'const': '',
           'metavar': 'PATH',
           'help': 'write wide events (one record per chunk '
                   'lifecycle/encounter/gap/handoff) as JSONL; no PATH = '
                   '<registry>/wide/<run>.jsonl, where `repro serve` finds '
                   'them'},
          {'flags': ['--live'],
           'dest': 'live',
           'kind': '_StoreTrueAction',
           'nargs': 0,
           'const': True,
           'default': False,
           'help': 'repaint the live terminal dashboard from an in-process '
                   'telemetry hub (implies gauge sampling; metrics stay '
                   'bit-identical)'}],
 'fig5': [{'flags': ['--seed'], 'dest': 'seed', 'default': 1, 'type': 'int'}],
 'sweep': [{'flags': ['--panel'],
            'dest': 'panel',
            'choices': ['a', 'b', 'c', 'd', 'e', 'f'],
            'required': True},
           {'flags': ['--file-mb'],
            'dest': 'file_mb',
            'default': 32.0,
            'type': 'float'},
           {'flags': ['--seeds'],
            'dest': 'seeds',
            'default': 1,
            'type': 'int'},
           {'flags': ['--jobs'],
            'dest': 'jobs',
            'default': 1,
            'type': 'int',
            'metavar': 'N',
            'help': 'worker processes (results stay byte-identical to --jobs '
                    '1)'},
           {'flags': ['--trace'],
            'dest': 'trace',
            'metavar': 'PATH',
            'help': 'record every run into one JSONL trace'},
           {'flags': ['--registry'],
            'dest': 'registry',
            'kind': '_StoreTrueAction',
            'nargs': 0,
            'const': True,
            'default': False,
            'help': "append the sweep's per-point gains to the run registry"},
           {'flags': ['--registry-dir'],
            'dest': 'registry_dir',
            'metavar': 'DIR',
            'help': 'registry directory (default .repro_runs, or '
                    'REPRO_RUNS_DIR)'},
           {'flags': ['--policy'],
            'dest': 'policy',
            'metavar': 'NAME',
            'help': 'staging policy for the SoftStage runs (reactive, rich, '
                    'mobility, predictive)'}],
 'profile': [{'flags': ['--system'],
              'dest': 'system',
              'default': 'softstage',
              'choices': ['softstage', 'xftp']},
             {'flags': ['--file-mb'],
              'dest': 'file_mb',
              'default': 8.0,
              'type': 'float'},
             {'flags': ['--seed'],
              'dest': 'seed',
              'default': 0,
              'type': 'int'},
             {'flags': ['--top'],
              'dest': 'top',
              'default': 15,
              'type': 'int'}],
 'trace summary': [{'dest': 'file', 'required': True},
                   {'flags': ['--run'],
                    'dest': 'run',
                    'help': 'restrict to one run id'}],
 'trace spans': [{'dest': 'file', 'required': True},
                 {'flags': ['--run'],
                  'dest': 'run',
                  'help': 'restrict to one run id'},
                 {'flags': ['--kind'],
                  'dest': 'kind',
                  'choices': ['chunk', 'encounter', 'gap', 'handoff']},
                 {'flags': ['--limit'],
                  'dest': 'limit',
                  'default': 30,
                  'type': 'int'},
                 {'flags': ['--critical'],
                  'dest': 'critical',
                  'kind': '_StoreTrueAction',
                  'nargs': 0,
                  'const': True,
                  'default': False,
                  'help': 'also print the per-download critical path'}],
 'trace chrome': [{'dest': 'file', 'required': True},
                  {'flags': ['-o', '--output'],
                   'dest': 'output',
                   'required': True},
                  {'flags': ['--run'],
                   'dest': 'run',
                   'help': 'restrict to one run id'}],
 'trace diff': [{'dest': 'file_a', 'required': True},
                {'dest': 'file_b',
                 'nargs': '?',
                 'help': 'second trace (omit to diff runs inside file_a)'},
                {'flags': ['--run-a'],
                 'dest': 'run_a',
                 'help': 'run id in the first trace'},
                {'flags': ['--run-b'],
                 'dest': 'run_b',
                 'help': 'run id in the second trace'}],
 'trace wide': [{'dest': 'file', 'required': True},
                {'flags': ['-o', '--output'],
                 'dest': 'output',
                 'metavar': 'PATH',
                 'help': 'write JSONL here instead of stdout'},
                {'flags': ['--run'],
                 'dest': 'run',
                 'help': 'restrict to one run id'}],
 'trace': [{'dest': 'trace_command',
            'required': True,
            'subcommands': [('summary', 'events + span statistics'),
                            ('spans', 'list derived spans'),
                            ('chrome',
                             'export Chrome trace-event JSON (Perfetto)'),
                            ('diff', 'per-span-kind latency deltas'),
                            ('wide',
                             'derive wide events from a trace (byte-identical '
                             'to a live --emit-wide run)')]}],
 'runs list': [{'flags': ['--json'],
                'dest': 'json',
                'kind': '_StoreTrueAction',
                'nargs': 0,
                'const': True,
                'default': False,
                'help': 'emit the registry listing as JSON (the same '
                        'serialization the HTTP /runs endpoint uses)'}],
 'runs show': [{'dest': 'run',
                'required': True,
                'help': 'rec id or run id (substring; latest wins)'}],
 'runs diff': [{'dest': 'run_a', 'required': True},
               {'dest': 'run_b', 'required': True},
               {'flags': ['--fail-on-regression'],
                'dest': 'fail_on_regression',
                'kind': '_StoreTrueAction',
                'nargs': 0,
                'const': True,
                'default': False,
                'help': 'exit 1 when a gain metric regresses past the '
                        'paper-shape threshold'},
               {'flags': ['--json'],
                'dest': 'json',
                'kind': '_StoreTrueAction',
                'nargs': 0,
                'const': True,
                'default': False,
                'help': 'emit the diff as JSON (the same serialization the '
                        'HTTP /diff endpoint uses)'}],
 'runs why': [{'dest': 'run_a',
               'required': True,
               'help': 'baseline rec id or run id'},
              {'dest': 'run_b',
               'required': True,
               'help': 'regressed rec id or run id'},
              {'flags': ['--wide-dir'],
               'dest': 'wide_dir',
               'metavar': 'DIR',
               'help': 'wide-event JSONL directory (default <registry>/wide)'},
              {'flags': ['--json'],
               'dest': 'json',
               'kind': '_StoreTrueAction',
               'nargs': 0,
               'const': True,
               'default': False,
               'help': 'emit the attribution as JSON (the same serialization '
                       'the HTTP explain endpoint uses)'}],
 'runs gauges': [{'dest': 'run', 'required': True, 'help': 'rec id or run id'},
                 {'flags': ['--metric'],
                  'dest': 'metric',
                  'metavar': 'NAME',
                  'help': 'substring filter, e.g. cache_occupancy or '
                          'staging.lead'},
                 {'flags': ['--csv'],
                  'dest': 'csv',
                  'kind': '_StoreTrueAction',
                  'nargs': 0,
                  'const': True,
                  'default': False,
                  'help': 'emit gauge,t,value CSV instead of sparklines'}],
 'runs': [{'flags': ['--registry-dir'],
           'dest': 'registry_dir',
           'metavar': 'DIR',
           'help': 'registry directory (default .repro_runs, or '
                   'REPRO_RUNS_DIR)'},
          {'dest': 'runs_command',
           'required': True,
           'subcommands': [('list', 'all registry records'),
                           ('show', 'one record in full'),
                           ('diff',
                            'compare two records, flagging gain regressions'),
                           ('why',
                            "attribute run B's movement from run A to "
                            "pipeline phases (needs both runs' wide events)"),
                           ('gauges', "render a record's gauge timelines")]}],
 'slo check': [{'dest': 'run',
                'nargs': '*',
                'required': True,
                'help': 'rec/run ids to check (default: every record)'},
               {'flags': ['--slo'],
                'dest': 'slo',
                'kind': '_AppendAction',
                'metavar': 'SPEC',
                'help': "SLO spec like 'gain >= 1.2' or 'p95(stage_latency) "
                        "<= 2.0' (repeatable; default: the paper-shape set)"},
               {'flags': ['--json'],
                'dest': 'json',
                'kind': '_StoreTrueAction',
                'nargs': 0,
                'const': True,
                'default': False,
                'help': 'emit results as JSON (the same serialization the '
                        'HTTP /slo endpoint uses)'},
               {'flags': ['--no-alerts'],
                'dest': 'no_alerts',
                'kind': '_StoreTrueAction',
                'nargs': 0,
                'const': True,
                'default': False,
                'help': "don't append violations to alerts.jsonl"}],
 'slo alerts': [{'flags': ['--json'],
                 'dest': 'json',
                 'kind': '_StoreTrueAction',
                 'nargs': 0,
                 'const': True,
                 'default': False}],
 'slo': [{'flags': ['--registry-dir'],
          'dest': 'registry_dir',
          'metavar': 'DIR',
          'help': 'registry directory (default .repro_runs, or '
                  'REPRO_RUNS_DIR)'},
         {'dest': 'slo_command',
          'required': True,
          'subcommands': [('check',
                           'judge registry records against the SLO set (exit '
                           '1 on any violation)'),
                          ('alerts', 'list the alert log')]}],
 'serve': [{'flags': ['--host'], 'dest': 'host', 'default': '127.0.0.1'},
           {'flags': ['--port'],
            'dest': 'port',
            'default': 8008,
            'type': 'int'},
           {'flags': ['--registry-dir'],
            'dest': 'registry_dir',
            'metavar': 'DIR',
            'help': 'registry directory (default .repro_runs, or '
                    'REPRO_RUNS_DIR)'},
           {'flags': ['--wide-dir'],
            'dest': 'wide_dir',
            'metavar': 'DIR',
            'help': 'wide-event JSONL directory served at /runs/<key>/wide '
                    '(default <registry>/wide)'},
           {'flags': ['--demo'],
            'dest': 'demo',
            'kind': '_StoreTrueAction',
            'nargs': 0,
            'const': True,
            'default': False,
            'help': 'also run one live demo on a background thread so /live '
                    'has traffic to stream'},
           {'flags': ['--file-mb'],
            'dest': 'file_mb',
            'default': 32.0,
            'type': 'float',
            'help': '--demo download size'},
           {'flags': ['--seed'],
            'dest': 'seed',
            'default': 0,
            'type': 'int',
            'help': '--demo seed'},
           {'flags': ['--policy'],
            'dest': 'policy',
            'metavar': 'NAME',
            'help': '--demo staging policy'}],
 'watch': [{'dest': 'url',
            'required': True,
            'help': 'server base URL (or /live URL) from `python -m repro '
                    'serve`'},
           {'flags': ['--max-events'],
            'dest': 'max_events',
            'type': 'int',
            'metavar': 'N',
            'help': 'stop after N SSE events (default: stream until the run '
                    'ends)'}],
 'handoff': [{'flags': ['--file-mb'],
              'dest': 'file_mb',
              'default': 48.0,
              'type': 'float'},
             {'flags': ['--seeds'],
              'dest': 'seeds',
              'default': 1,
              'type': 'int'}],
 'traces': [{'flags': ['--duration'],
             'dest': 'duration',
             'default': 300.0,
             'type': 'float'},
            {'flags': ['--seeds'],
             'dest': 'seeds',
             'default': 1,
             'type': 'int'}],
 '': [{'dest': 'command',
       'required': True,
       'subcommands': [('demo', 'SoftStage vs Xftp quick comparison'),
                       ('fig5', 'XIA substrate benchmark'),
                       ('sweep', 'one Fig. 6 panel'),
                       ('profile', 'one profiled download'),
                       ('handoff', 'handoff-policy comparison'),
                       ('traces', 'trace-driven experiment'),
                       ('trace', 'JSONL trace analysis'),
                       ('runs', 'the persistent run registry'),
                       ('slo', 'service-level objectives over runs'),
                       ('serve',
                        'HTTP telemetry service over the run registry'),
                       ('watch',
                        "live dashboard over a serve process's /live "
                        'stream')]}]}


def test_every_parser_is_the_one_captured_before_the_split(monkeypatch):
    top = _top_parser(monkeypatch)
    assert top.prog == "python -m repro"
    assert top.description == front_door.__doc__
    table = parser_table(top)
    assert sorted(table) == sorted(PARSERS)
    for path in PARSERS:
        assert table[path] == PARSERS[path], path


def test_help_names_every_command_family_and_runs_subcommand(monkeypatch):
    """``python -m repro --help`` prints the module docstring; it listed
    neither the ``slo`` family nor ``runs why``."""
    top = _top_parser(monkeypatch)
    (families,) = (a for a in top._actions
                   if isinstance(a, argparse._SubParsersAction))
    for family, parser in families.choices.items():
        assert f"- ``{family}``" in top.description, family
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for leaf in action.choices:
                    assert f"``{leaf}``" in top.description, (family, leaf)


def test_every_leaf_command_dispatches_to_a_handler(monkeypatch):
    def leaves(parser):
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield parser
        for action in subs:
            for child in action.choices.values():
                yield from leaves(child)

    found = list(leaves(_top_parser(monkeypatch)))
    assert len(found) == 20
    assert all(callable(leaf.get_default("fn")) for leaf in found)


_PACKAGE = pathlib.Path(front_door.__file__).parent


def test_the_front_door_loads_no_third_party_package():
    """``networkx`` (and ``numpy``/``scipy``, never imported) stay out of
    every process: a third of a run's memory was one Dijkstra call."""
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.__main__, repro.experiments.runner; "
         "print(sorted({'networkx', 'numpy', 'scipy'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(_PACKAGE.parent)},
    )
    assert loaded.stdout.strip() == "[]"


def test_main_stays_a_family_list_and_families_import_at_the_top():
    sources = [_PACKAGE / "__main__.py", *sorted((_PACKAGE / "cli").glob("*.py"))]
    assert len(sources) == 8  # __main__, cli/__init__ and six families
    for path in sources:
        text = path.read_text(encoding="utf-8")
        limit = 150 if path.name == "__main__.py" else 350
        assert len(text.splitlines()) <= limit, path
        local_imports = [
            node.lineno
            for scope in ast.walk(ast.parse(text))
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(scope)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert local_imports == [], path


if __name__ == "__main__":  # re-capture: prints the PARSERS literal
    patcher = pytest.MonkeyPatch()
    pprint.pprint(parser_table(_top_parser(patcher)), width=79,
                  sort_dicts=False)
