"""The per-packet pushes audited against ``Simulator.call_at``.

``LinkDirection.enqueue``, ``Medium._tx_done`` and ``Device.receive``
push their ``arrival``, ``tx-done`` and ``cpu`` steps onto the kernel
heap themselves (the push rule, ``repro.net.link``).  Here every such
push of a golden download is intercepted and compared with the entry
``call_at`` builds for the same arguments on a simulator in the same
state: the same layout and priority, the place the push just took
(``sim._seq``), a time not before now, and the step name that goes
with the callback.
"""

import sys
from collections import Counter

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.net import link as link_mod, nodes as nodes_mod
from repro.net.link import LinkDirection, Medium
from repro.net.nodes import Device
from repro.sim import Simulator
from repro.sim.core import NORMAL
from repro.util import MB

#: Step name -> the function its callback must be bound from.
CALLBACKS = {
    "arrival": LinkDirection._arrive,
    "tx-done": Medium._tx_done,
    "cpu": None,  # the device's own ``handle_packet``
}


class PushAudit:
    """Stands in for ``heappush`` in the two producer modules."""

    def __init__(self, push):
        self._push = push
        self.seen = Counter()

    def __call__(self, queue, entry):
        caller = sys._getframe(1)
        producer = caller.f_code.co_qualname
        sim = caller.f_locals["sim"]  # each producer holds its simulator
        when, _priority, place, _none, callback, args, name = entry
        assert queue is sim._queue
        assert place == sim._seq and when >= sim._now
        shadow = Simulator()
        shadow._now, shadow._seq = sim._now, sim._seq - 1
        shadow.call_at(when, callback, args, name)
        assert shadow._queue == [entry]
        assert entry[1] == NORMAL and len(args) == 2 - (name == "tx-done")
        expected = CALLBACKS[name]
        if expected is None:
            assert isinstance(callback.__self__, Device)
            assert callback.__func__ is type(callback.__self__).handle_packet
        else:
            assert callback.__func__ is expected
        self.seen[producer, name] += 1
        self._push(queue, entry)


@pytest.mark.parametrize("system", ["softstage", "xftp"])
def test_every_per_packet_push_is_what_call_at_would_push(monkeypatch, system):
    params = MicrobenchParams(file_size=4 * MB, packet_loss=0.05)
    plain = run_download(system, params=params, seed=0)
    audit = PushAudit(link_mod.heappush)
    assert nodes_mod.heappush is link_mod.heappush
    monkeypatch.setattr(link_mod, "heappush", audit)
    monkeypatch.setattr(nodes_mod, "heappush", audit)
    audited = run_download(system, params=params, seed=0)
    assert audited.download_time == plain.download_time
    assert set(audit.seen) == {
        ("LinkDirection.enqueue", "arrival"),
        ("LinkDirection.enqueue", "tx-done"),
        ("Medium._tx_done", "arrival"),
        ("Medium._tx_done", "tx-done"),
        ("Device.receive", "cpu"),
    }
