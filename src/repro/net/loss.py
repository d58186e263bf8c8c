"""Per-packet loss processes.

Two models are provided:

- :class:`BernoulliLoss`: i.i.d. drops, matching how the paper emulates
  Internet bandwidth "by tuning the packet loss rate in the NIC";
- :class:`GilbertElliottLoss`: two-state bursty loss, matching the
  large-scale-fading character of the vehicular wireless channel (the
  22-37% loss rates in Table III come from wardriving measurements
  where losses cluster in deep fades).
"""

from __future__ import annotations

import abc
import random

from repro.util.validation import check_fraction, check_positive


class LossModel(abc.ABC):
    """Decides, per packet, whether the channel drops it."""

    @abc.abstractmethod
    def dropped(self, now: float) -> bool:
        """Return True if a packet sent at time ``now`` is lost."""

class NoLoss(LossModel):
    """A perfect channel."""

    def dropped(self, now: float) -> bool:
        return False

    def __repr__(self) -> str:
        return "NoLoss()"


class BernoulliLoss(LossModel):
    """Independent per-packet drops with fixed probability."""

    def __init__(self, rate: float, rng: random.Random) -> None:
        self.rate = check_fraction("loss rate", rate)
        self._rng = rng

    def dropped(self, now: float) -> bool:
        return self._rng.random() < self.rate

    def __repr__(self) -> str:
        return f"BernoulliLoss(rate={self.rate})"


class GilbertElliottLoss(LossModel):
    """Two-state (good/bad) bursty loss driven by simulated time.

    The channel alternates between a *good* state with low loss and a
    *bad* state (deep fade) with very high loss.  State residence times
    are exponential.  Instead of stepping a Markov chain per packet, we
    evolve the state lazily as a function of the simulation clock, so
    the model is independent of packet rate.
    """

    def __init__(
        self,
        average_rate: float,
        rng: random.Random,
        good_loss: float = 0.02,
        bad_loss: float = 0.95,
        mean_bad_duration: float = 0.25,
    ) -> None:
        check_fraction("average_rate", average_rate)
        check_fraction("good_loss", good_loss)
        check_fraction("bad_loss", bad_loss)
        check_positive("mean_bad_duration", mean_bad_duration)
        if not good_loss <= average_rate <= bad_loss:
            raise ValueError(
                f"average_rate {average_rate} must lie between good_loss "
                f"{good_loss} and bad_loss {bad_loss}"
            )
        self._rng = rng
        self._good_loss = good_loss
        self._bad_loss = bad_loss
        self._mean_bad = mean_bad_duration
        #: Fraction of time in the bad state solving
        #: avg = f*bad + (1-f)*good for f.
        self._bad_fraction = (average_rate - good_loss) / (bad_loss - good_loss)
        self._average = average_rate
        if self._bad_fraction in (0.0, 1.0):
            self._mean_good = float("inf")
        else:
            self._mean_good = mean_bad_duration * (1 - self._bad_fraction) / self._bad_fraction
        self._state_bad = rng.random() < self._bad_fraction
        self._state_until = self._sample_duration()
        self._clock = 0.0

    def _sample_duration(self) -> float:
        mean = self._mean_bad if self._state_bad else self._mean_good
        if mean == float("inf"):
            return float("inf")
        return self._rng.expovariate(1.0 / mean)

    def dropped(self, now: float) -> bool:
        # The fade state evolves lazily, up to ``now``, then one draw.
        if now < self._clock:
            # Loss models are per-link and links see monotonic time; a
            # stale clock would only happen on misuse.
            raise ValueError("GilbertElliottLoss observed time going backwards")
        self._clock = now
        while self._state_until <= now:
            self._state_bad = not self._state_bad
            self._state_until += self._sample_duration()
        rate = self._bad_loss if self._state_bad else self._good_loss
        return self._rng.random() < rate

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(avg={self._average}, good={self._good_loss}, "
            f"bad={self._bad_loss}, mean_bad={self._mean_bad}s)"
        )
