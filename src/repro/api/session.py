"""Per-node session: the application-facing handle on an engine.

Method names follow mpi4py's lower-case convention for object-ish sends:
``isend``/``irecv`` return handles; ``wait`` is a process-style helper
for generator coroutines running inside the simulator.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.engine import NmadEngine
from repro.core.packets import Message, RecvHandle


class Session:
    """Application endpoint bound to one node's engine."""

    def __init__(self, engine: NmadEngine) -> None:
        self.engine = engine
        self.sim = engine.sim

    def __repr__(self) -> str:
        return f"<Session on {self.node}>"

    @property
    def node(self) -> str:
        return self.engine.machine.name

    # ------------------------------------------------------------------ #
    # non-blocking API (returns immediately; the handles are completions)
    # ------------------------------------------------------------------ #

    def isend(self, dest: str, size: "int | str", tag: int = 0) -> Message:
        """Enqueue a send of ``size`` bytes (accepts ``"4K"`` notation).

        Size parsing happens once, in :meth:`NmadEngine.isend` — every
        entry point (engine, session, communicator) shares that choke
        point.
        """
        return self.engine.isend(dest, size, tag=tag)

    def irecv(
        self, source: Optional[str] = None, tag: Optional[int] = None
    ) -> RecvHandle:
        """Post a receive matching ``source``/``tag`` (None = wildcard)."""
        return self.engine.post_recv(source=source, tag=tag)

    def cancel(self, handle: RecvHandle) -> bool:
        """Withdraw an unmatched receive (False if it already matched)."""
        return self.engine.cancel_recv(handle)

    # ------------------------------------------------------------------ #
    # process-style helper
    # ------------------------------------------------------------------ #

    def wait(self, handle: Union[Message, RecvHandle]):
        """``yield from session.wait(h)`` inside a simulation process.

        Returns the completed :class:`Message` (a receive's is the
        message it matched).
        """
        return (yield handle)
