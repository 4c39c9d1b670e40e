"""Multicore eager splitting — the paper's §III-D mechanism (Figs. 4c/7).

Extends :class:`HeteroSplitStrategy`: *eager* messages may also be split
across rails, with each chunk's CPU-consuming PIO copy submitted from a
different core.  The strategy "splits the data in min{number of idle
NICs, number of idle cores} chunks at most, each of them is then sent
over a different NIC from a different core" (§III-B).

The chunk plan charges the offloading cost TO — the paper's equation (1):

    T(size) = TO + max(TD(size·ratio, N1), TD(size·(1−ratio), N2))

so tiny messages (where TO dominates) are *not* split, matching the
Fig. 9 crossover around 4 KiB.  Submissions go through PIOMan's
to-be-sent list: the first chunk stays on the issuing core, the others
are signalled to idle cores (3 µs) or preempt computing threads (6 µs).
"""

from __future__ import annotations

from typing import Optional

from repro.core.packets import Message, TransferMode
from repro.core.strategies.splitting import HeteroSplitStrategy
from repro.util.errors import ConfigurationError


class MulticoreSplitStrategy(HeteroSplitStrategy):
    """hetero_split + eager chunks offloaded to idle cores.

    Parameters
    ----------
    offload_cost:
        TO of equation (1): µs charged (in the *plan*) per additional
        rail; the actual signalling cost paid at run time comes from the
        topology (3 µs / 6 µs).  Defaults to the topology's signal cost.
    min_split:
        Never split eager messages smaller than this (guards the planner
        against pathological chunking; the TO term already pushes the
        crossover to ~4 KiB).
    allow_preempt:
        May chunk pickups preempt computing threads (6 µs) or only use
        idle cores.
    """

    name = "multicore_split"
    needs_sampling = True

    def __init__(
        self,
        rdv_threshold: Optional[int] = None,
        max_rails: Optional[int] = None,
        use_idle_prediction: bool = True,
        offload_cost: Optional[float] = None,
        min_split: int = 256,
        allow_preempt: bool = True,
    ) -> None:
        super().__init__(
            rdv_threshold=rdv_threshold,
            max_rails=max_rails,
            use_idle_prediction=use_idle_prediction,
        )
        if offload_cost is not None and offload_cost < 0:
            raise ConfigurationError(f"negative offload cost: {offload_cost}")
        if min_split < 0:
            raise ConfigurationError(f"negative min_split: {min_split}")
        self.offload_cost = offload_cost
        self.min_split = min_split
        self.allow_preempt = allow_preempt

    # ------------------------------------------------------------------ #

    def _to(self) -> float:
        """The planning TO: explicit override or the topology's 3 µs."""
        if self.offload_cost is not None:
            return self.offload_cost
        assert self.engine is not None
        return self.engine.machine.topology.signal_cost_us

    def choose_mode(self, msg: Message) -> TransferMode:
        """Unlike single-rail strategies, chunked eager sends can carry a
        message larger than any one rail's eager limit — up to the *sum*
        of the limits (one chunk per rail)."""
        base = super().choose_mode(msg)
        if base is TransferMode.RENDEZVOUS:
            below_threshold = (
                self.rdv_threshold is not None and msg.size < self.rdv_threshold
            )
            combined_limit = sum(
                n.profile.eager_limit for n in self.rails_to(msg.dest)
            )
            if below_threshold and msg.size <= combined_limit:
                return TransferMode.EAGER
        return base

    def _fallback_single(self, msg: Message) -> None:
        """Whole message on the fastest rail — or rendezvous when it no
        longer fits a single eager packet."""
        assert self.engine is not None
        nic = self.fastest_rail(msg.dest, msg.size, TransferMode.EAGER)
        if msg.size <= nic.profile.eager_limit:
            self.submit_whole_eager(msg, nic)
        else:
            self.engine.start_rendezvous(msg, control_nic=self.control_rail(msg))

    def schedule_outlist(self) -> None:
        assert self.engine is not None
        engine = self.engine
        scheduler = engine.scheduler
        while (msg := scheduler.pop_ready()) is not None:
            if msg.mode is TransferMode.RENDEZVOUS:
                engine.start_rendezvous(msg, control_nic=self.control_rail(msg))
                continue
            self._emit_eager(msg)

    def _emit_eager(self, msg: Message) -> None:
        assert self.engine is not None
        engine = self.engine
        issuing_core = engine.app_core
        if msg.size < self.min_split:
            self._fallback_single(msg)
            return
        # §III-B: at most min{#idle NICs, #idle cores} chunks.  The
        # issuing core counts as available — it submits the first chunk.
        rails = [
            n
            for n in self.rails_to(msg.dest, msg)
            if msg.size <= n.profile.eager_limit or n.is_idle
        ]
        idle_rails = [n for n in rails if n.is_idle] or rails
        cores_avail = 1 + len(
            [
                c
                for c, preempt in engine.pioman.available_cores(exclude=issuing_core)
                if self.allow_preempt or not preempt
            ]
        )
        max_rails = min(len(idle_rails), cores_avail)
        if self.max_rails is not None:
            max_rails = min(max_rails, self.max_rails)
        if max_rails <= 1:
            self._fallback_single(msg)
            return
        plan = self.predictor.plan(
            idle_rails,
            msg.size,
            TransferMode.EAGER,
            max_rails=max_rails,
            fixed_cost=self._to(),
        )
        # Respect per-rail eager limits; bail out to single rail if the
        # plan violates one (rare: tiny limits + huge message).
        for nic, chunk in zip(plan.nics, plan.sizes):
            if chunk > nic.profile.eager_limit:
                self._fallback_single(msg)
                return
        if len(plan.nics) == 1:
            nic = plan.nics[0]
            if msg.size <= nic.profile.eager_limit:
                self.submit_whole_eager(msg, nic)
            else:
                self.engine.start_rendezvous(msg, control_nic=self.control_rail(msg))
            return
        if engine.hooks.on_split:
            engine.hooks.on_split(
                engine.machine.name, msg, plan, self._to(), engine.sim.now
            )
        engine.submit_eager_chunks(
            msg,
            list(zip(plan.nics, plan.sizes)),
            offload=True,
            allow_preempt=self.allow_preempt,
        )
