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
from repro.core.prediction import RailPlan
from repro.core.strategies.splitting import HeteroSplitStrategy

#: never split eager messages smaller than this (guards the planner
#: against pathological chunking; the TO term already pushes the
#: crossover to ~4 KiB)
MIN_SPLIT = 256


class MulticoreSplitStrategy(HeteroSplitStrategy):
    """hetero_split + eager chunks offloaded to idle cores.

    The eager plan charges the topology's signal cost as TO per
    additional rail (the run-time signalling cost also comes from the
    topology: 3 µs idle / 6 µs preempt), and chunk pickups may preempt
    computing threads.  Parameters are :class:`HeteroSplitStrategy`'s.
    """

    name = "multicore_split"

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

    def send_eager(self, msg: Message) -> bool:
        assert self.engine is not None
        engine = self.engine
        plan = self._eager_plan(msg)
        if plan is not None and len(plan.nics) > 1:
            if engine.hooks.on_split:
                engine.hooks.on_split(
                    engine.machine.name, msg, plan,
                    engine.machine.topology.signal_cost_us, engine.sim.now,
                )
            engine.submit_eager_chunks(msg, list(zip(plan.nics, plan.sizes)))
            return True
        # Whole on one rail — or rendezvous when it no longer fits a
        # single eager packet.
        if plan is not None:
            nic = plan.nics[0]
        else:
            nic = self.fastest_rail(msg.dest, msg.size, TransferMode.EAGER)
        if msg.size <= nic.profile.eager_limit:
            self.submit_whole_eager(msg, nic)
        else:
            engine.start_rendezvous(msg, control_nic=self.control_rail(msg))
        return True

    def _eager_plan(self, msg: Message) -> Optional[RailPlan]:
        """Equation (1)'s split of an eager message, or None when it
        goes whole on the fastest rail."""
        assert self.engine is not None
        engine = self.engine
        if msg.size < MIN_SPLIT:
            return None
        # §III-B: at most min{#idle NICs, #idle cores} chunks.  The
        # issuing core counts as available — it submits the first chunk.
        rails = [
            n
            for n in self.rails_to(msg.dest, msg)
            if msg.size <= n.profile.eager_limit or n.is_idle
        ]
        idle_rails = [n for n in rails if n.is_idle] or rails
        cores_avail = 1 + len(engine.pioman.available_cores(exclude=engine.app_core))
        max_rails = min(len(idle_rails), cores_avail)
        if self.max_rails is not None:
            max_rails = min(max_rails, self.max_rails)
        if max_rails <= 1:
            return None
        plan = self.predictor.plan(
            idle_rails,
            msg.size,
            TransferMode.EAGER,
            max_rails=max_rails,
            fixed_cost=engine.machine.topology.signal_cost_us,
        )
        # Respect per-rail eager limits (rare: tiny limits + huge message).
        for nic, chunk in zip(plan.nics, plan.sizes):
            if chunk > nic.profile.eager_limit:
                return None
        return plan
