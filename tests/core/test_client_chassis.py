"""The mobile-client chassis: one of each mechanism, wired in one order.

The four compared systems used to be four classes that each re-built
the handoff manager, the gated fetcher, the migrate-on-attach hook, the
deadline race and the ``DownloadResult``.  The shape test keeps them
from growing back; the order test pins the one thing the collapse could
silently change — who hears a scan or an attach first.
"""

import ast
import pathlib

import pytest

import repro
from repro.core.policy import RichPrefetchPolicy
from repro.errors import ConfigurationError
from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import SYSTEMS, TestbedScenario
from repro.util import MB

_PACKAGE = pathlib.Path(repro.__file__).parent


def _functions():
    """Every function under ``src/repro`` as ``(where, node)``."""
    for path in sorted(_PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.relative_to(_PACKAGE)}:{node.name}", node


def _calls(node, name):
    """Calls of ``name(...)`` or ``<anything>.name(...)`` under ``node``."""
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == name
    ]


def test_one_loop_one_result_one_migration_hook():
    builders, races, migrators, factories = [], [], [], []
    for where, function in _functions():
        builders += [where] * len(_calls(function, "DownloadResult"))
        takes_deadline = any(
            arg.arg == "deadline" for arg in function.args.args
        )
        if takes_deadline and _calls(function, "any_of"):
            races.append(where)
        if _calls(function, "migrate_receivers"):
            migrators.append(where)
        if function.name.startswith("make_") and function.name.endswith(
            "client"
        ):
            factories.append(where)
    assert builders == ["core/client.py:download"]
    assert races == ["core/client.py:download"]
    assert migrators == ["core/client.py:_on_attach"]
    assert factories == ["experiments/scenario.py:make_client"]


def _owners(callbacks):
    return [type(callback.__self__).__name__ for callback in callbacks]


@pytest.mark.parametrize("system, on_scan, on_attach", [
    ("softstage",
     ["NetworkSensor", "HandoffManager"],
     ["NetworkSensor", "StagingCoordinator", "SoftStageClient"]),
    ("xftp", ["HandoffManager"], ["XftpClient"]),
    ("endtoend", ["HandoffManager"], ["EndToEndClient"]),
])
def test_each_system_subscribes_in_its_own_order(system, on_scan, on_attach):
    """Subscription order is behaviour: a policy's attach-time staging
    signal must reach the wireless queue before the migration packets."""
    scenario = TestbedScenario(params=MicrobenchParams(file_size=2 * MB))
    scenario.make_client(system)
    assert _owners(scenario.scanner._listeners) == on_scan
    assert _owners(scenario.controller._on_attach) == on_attach


def test_make_client_rejects_what_no_system_can_use():
    assert sorted(SYSTEMS) == ["endtoend", "softstage", "xftp"]
    scenario = TestbedScenario(params=MicrobenchParams(file_size=2 * MB))
    with pytest.raises(ConfigurationError):
        scenario.make_client("warpdrive")
    with pytest.raises(ConfigurationError):
        scenario.make_client("xftp", staging_policy=RichPrefetchPolicy())
