"""EdgeBuffer-style predictive staging (the approach §III-B argues against).

A :class:`MobilityPredictor` guesses which network the client will
visit next; :class:`PredictiveStagingPolicy` pre-stages upcoming
chunks into the *predicted* network's VNF before the client gets
there.  When the prediction is right this is as good as (or slightly
better than) reactive staging; when it is wrong, chunks sit in the
wrong edge cache and must be fetched cross-network or re-staged — the
fragility the paper's reactive design avoids.  ``accuracy`` sweeps the
spectrum for the ablation bench.

The policy is a pure :class:`~repro.core.policy.StagingPolicy`: it
never polls (``decide`` returns nothing) and acts only on the attach
lifecycle hook, which is exactly the event prediction-driven schemes
key on.  It runs on the ordinary SoftStage client like every other
policy (``staging_policy=``, or ``--policy predictive``), so a
mis-staged chunk still has the origin fallback.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.policy import StagingAction, StagingObservation, StagingPolicy
from repro.mobility.association import AccessPointInfo


#: Default prediction accuracy for registry-built policies — the
#: "pretty good but not perfect" regime the ablation bench centres on.
DEFAULT_PREDICTOR_ACCURACY = 0.7


class MobilityPredictor:
    """Predicts the next network with configurable accuracy.

    With probability ``accuracy`` it names the network the client will
    actually join next (we let the round-robin coverage make "next"
    well defined); otherwise it names a uniformly random *other*
    network — modeling the AP-availability churn the paper cites as
    what breaks layer-2 prediction in practice.
    """

    def __init__(
        self,
        access_points: Sequence[AccessPointInfo],
        accuracy: float,
        rng: random.Random,
    ) -> None:
        self.access_points = list(access_points)
        self.accuracy = accuracy
        self.rng = rng

    def predict_next(self, current_name: Optional[str]) -> AccessPointInfo:
        names = [info.name for info in self.access_points]
        if current_name in names and len(names) > 1:
            true_next = self.access_points[
                (names.index(current_name) + 1) % len(names)
            ]
        else:
            true_next = self.access_points[0]
        if self.rng.random() < self.accuracy or len(names) == 1:
            return true_next
        others = [info for info in self.access_points if info is not true_next]
        return others[self.rng.randrange(len(others))]


class PredictiveStagingPolicy(StagingPolicy):
    """Stage a fixed window into wherever the predictor points.

    On every association it asks the predictor which network comes
    *after* this one, forgets stale requests (signals sent toward a
    network the client never reached), and stages the next
    ``stage_window`` chunks there.  Between attaches it does nothing —
    prediction-driven staging has no reactive feedback loop, which is
    precisely the contrast with :class:`ReactiveEq1Policy`.
    """

    name = "predictive"
    #: Chunks staged into the predicted network on every attach.
    stage_window = 8

    def __init__(self, predictor: MobilityPredictor) -> None:
        self.predictor = predictor

    @classmethod
    def for_scenario(
        cls, scenario, accuracy: float = DEFAULT_PREDICTOR_ACCURACY
    ) -> "PredictiveStagingPolicy":
        """The policy over ``scenario``'s AP list, its predictor drawing
        from the scenario's ``mobility-predictor`` RNG stream."""
        predictor = MobilityPredictor(
            list(scenario.access_points.values()),
            accuracy=accuracy,
            rng=scenario.streams.stream("mobility-predictor"),
        )
        return cls(predictor)

    def decide(self, obs: StagingObservation) -> list[StagingAction]:
        return []

    def on_attach(
        self, obs: StagingObservation, network: str
    ) -> list[StagingAction]:
        # On every join, pre-stage the upcoming window into the network
        # the predictor says comes *after* this one.
        predicted = self.predictor.predict_next(network)
        actions: list[StagingAction] = []
        if obs.stale_cids:
            actions.append(StagingAction.cancel(obs.stale_cids))
        actions.append(
            StagingAction.stage(
                self.stage_window,
                target=predicted.name,
                label=f"predict:{predicted.name}",
            )
        )
        return actions

    def prestage_count(self, obs: StagingObservation) -> int:
        return self.stage_window
