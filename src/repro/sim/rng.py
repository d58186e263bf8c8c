"""Seeded, named random-number substreams.

Every stochastic component (each link's loss process, each mobility
model, each workload generator) draws from its own named substream so
that experiments are reproducible and changing one component's draws
does not perturb another's.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of independent :class:`random.Random` substreams.

    Substreams are derived deterministically from ``(root_seed, name)``
    so the same name always yields the same sequence for a given root
    seed, regardless of creation order.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the substream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(
                f"{self.root_seed}:{name}".encode("utf-8")
            ).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.root_seed} streams={len(self._streams)}>"
