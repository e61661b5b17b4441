"""Epoch-based adaptive execution (Section VI, Figure 5).

The :class:`AdaptiveRuntime` divides time into fixed-length epochs:

* statistics are gathered while an epoch runs,
* at the first tuple of epoch *i+1* the statistics of epoch *i* are folded
  into the catalog and handed to the :class:`~repro.core.adaptive.AdaptiveController`,
* a changed plan is installed at the start of epoch *i+2* (ruleset
  propagation delay of Figure 5).

Reconfiguration is atomic between input tuples, which is where this
simulation simplifies the paper: real Storm workers switch rulesets per
epoch with per-epoch state containers, while here a switch happens at a
single simulated instant.  Consequently a freshly introduced MIR store is
*backfilled* from the (windowed) input stores it derives from — the
simulation-equivalent of the paper's transition scheme where old join
partners keep being probed iteratively while the new store fills up
(Section VI.B / Figure 8b).  DESIGN.md discusses the substitution.

The switch mechanics themselves — plan diffing, state migration,
repartitioning, backfill, archived lookups — live in
:class:`~repro.engine.rewiring.RewirableRuntime`, which this runtime shares
with the session facade's online ``add_query``/``remove_query`` path.

Watermark mode composes: with ``disorder_bound`` set, epoch boundaries are
still crossed on (monotone-filtered) event time — a straggler whose event
timestamp lags the current epoch simply cannot cross a boundary, so the
epoch counter never regresses — and the shared ``install()`` path seeds
per-stream high waters across the switch, keeps seq-carrying backfill
intermediates visibility-exact, and evicts against the watermark rather
than the boundary instant.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.adaptive import AdaptiveController
from ..core.partitioning import ClusterConfig
from ..core.topology import Topology
from .adaptivity import AdaptivityLoop
from .rewiring import RewirableRuntime, SwitchRecord
from .runtime import RuntimeConfig
from .statistics import EpochStatistics
from .tuples import StreamTuple

__all__ = ["AdaptiveRuntime", "SwitchRecord"]


class AdaptiveRuntime(RewirableRuntime):
    """A runtime that re-optimizes itself at epoch boundaries.

    Compatibility shim: the epoch machinery itself lives in
    :class:`~repro.engine.adaptivity.AdaptivityLoop`; this class merely
    wires the runtime's ingest/boundary hooks into the loop and exposes
    the loop's state under the historical attribute names.
    """

    # plan switches land between inputs: no cross-input micro-batches
    per_input_hooks = True

    def __init__(
        self,
        controller: AdaptiveController,
        windows: Dict[str, float],
        config: Optional[RuntimeConfig] = None,
        epoch_length: float = 1.0,
        cluster: Optional[ClusterConfig] = None,
        adapt: bool = True,
        stats_window: int = 1,
    ) -> None:
        self.loop = AdaptivityLoop(
            controller,
            epoch_length=epoch_length,
            cluster=cluster or controller.config.cluster,
            adapt=adapt,
            stats_window=stats_window,
        )
        topology = controller.initial_topology(self.loop.cluster)
        super().__init__(topology, windows, config)
        self.loop.attach(self)

    # ------------------------------------------------------------------
    # epoch machinery — delegated to the loop
    # ------------------------------------------------------------------
    def on_input_boundary(self, now: float) -> None:
        self.loop.advance(now)

    def on_ingest(self, tup: StreamTuple) -> None:
        self.loop.observe(tup)

    # ------------------------------------------------------------------
    # historical surface
    # ------------------------------------------------------------------
    @property
    def controller(self) -> AdaptiveController:
        return self.loop.controller

    @property
    def epoch_length(self) -> float:
        return self.loop.epoch_length

    @property
    def cluster(self) -> Optional[ClusterConfig]:
        return self.loop.cluster

    @property
    def adapt(self) -> bool:
        return self.loop.adapt

    @adapt.setter
    def adapt(self, value: bool) -> None:
        self.loop.adapt = value

    @property
    def current_epoch(self) -> int:
        return self.loop.current_epoch

    @property
    def stats(self) -> EpochStatistics:
        return self.loop.stats

    @property
    def pending(self) -> Dict[int, Topology]:
        return self.loop.pending
