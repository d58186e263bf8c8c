"""SoftStage client configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SoftStageConfig:
    """Knobs of the Staging Manager.

    Defaults follow the paper where it is explicit and otherwise pick
    values the sensitivity tests in ``tests/core`` justify.
    """

    #: How often the Staging Coordinator re-evaluates Eq. 1, seconds.
    coordinator_poll_interval: float = 0.25
    #: Chunks to stage before any latency estimates exist ("initial
    #: chunks are retrieved directly from the server, while the client
    #: contacts the edge VNF to stage future chunks", §III-A).
    initial_stage_count: int = 2
    #: Upper bound on chunks staged ahead (edge cache budget); Eq. 1
    #: decides *when*, this bounds *how far*.
    max_stage_ahead: int = 64
    #: Re-send a staging signal if unconfirmed for this long, seconds
    #: (control packets can die on the wireless segment).
    staging_signal_timeout: float = 3.0
    #: Working assumption for the next coverage gap's length before any
    #: gap has been observed, seconds.  The coordinator signals enough
    #: chunks ahead that the VNF can keep staging through a gap of this
    #: length; once real gaps are observed their EWMA replaces it
    #: (reactive adaptation — no mobility prediction).
    initial_gap_estimate: float = 16.0
    #: Fallback values for Eq. 1 before any estimates exist.
    default_staging_latency: float = 1.0
    default_fetch_latency: float = 1.0
    default_rtt: float = 0.02
    #: EWMA smoothing for the Table I latency estimators.
    ewma_alpha: float = 0.25
    #: RSS hysteresis for the default handoff policy, dB.
    handoff_hysteresis_db: float = 3.0
    #: Per-chunk control-plane cost of the delegation API: the extra
    #: client<->Staging-Manager IPC round trips of one XfetchChunk*
    #: call (profile poll, state updates, staging signalling).  The
    #: paper's Fig. 6(a): "the control plane messages introduce more
    #: overhead with smaller chunks".
    xfetch_control_overhead: float = 0.06

    def __post_init__(self) -> None:
        if self.coordinator_poll_interval <= 0:
            raise ConfigurationError("coordinator_poll_interval must be > 0")
        if self.initial_stage_count < 1:
            raise ConfigurationError("initial_stage_count must be >= 1")
        if self.max_stage_ahead < 1:
            raise ConfigurationError("max_stage_ahead must be >= 1")
        if self.staging_signal_timeout <= 0:
            raise ConfigurationError("staging_signal_timeout must be > 0")
        if self.initial_gap_estimate < 0:
            raise ConfigurationError("initial_gap_estimate must be >= 0")
        if self.default_staging_latency <= 0 or self.default_fetch_latency <= 0:
            raise ConfigurationError("default latencies must be > 0")
