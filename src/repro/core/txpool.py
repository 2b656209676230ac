"""The pending-command pool (``txpool`` in the paper's protocol description).

Every node keeps the commands it has heard from clients in a local pool;
the leader drains the pool to build proposals and every node removes a
command once a block containing it commits.

Admission is explicit: :meth:`TxPool.admit` returns a verdict —
:data:`ADMITTED`, :data:`DUPLICATE` or :data:`OVERFLOW` — and the pool
keeps per-verdict counters, so backpressure under open-loop load is
observable instead of silently folded into a boolean.  The first overflow
drop of a pool emits a single :class:`TxPoolOverflowWarning`; subsequent
drops are counted silently.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from typing import Collection, Iterable, List, Optional

from repro.core.types import Command

#: Admission verdicts returned by :meth:`TxPool.admit`.
ADMITTED = "admitted"
DUPLICATE = "duplicate"
OVERFLOW = "overflow"

ADMISSION_VERDICTS = (ADMITTED, DUPLICATE, OVERFLOW)


class TxPoolOverflowWarning(UserWarning):
    """Raised (once per pool) when a bounded pool drops its first command."""


class TxPool:
    """An ordered pool of pending client commands."""

    def __init__(self, max_size: Optional[int] = None) -> None:
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be at least 1 (or None for unbounded)")
        self._pending: "OrderedDict[str, Command]" = OrderedDict()
        self.max_size = max_size
        #: Commands rejected because the pool was full (overflow verdicts).
        self.dropped = 0
        #: Commands rejected because they were already pending.
        self.duplicates = 0
        #: The largest number of simultaneously pending commands observed.
        self.high_watermark = 0
        self._overflow_warned = False

    def __len__(self) -> int:
        return len(self._pending)

    def admit(self, command: Command) -> str:
        """Admit a command, returning the admission verdict.

        ``ADMITTED`` — the command is now pending; ``DUPLICATE`` — it was
        already pending (not counted as a drop); ``OVERFLOW`` — the pool
        is at ``max_size`` and the command was dropped (counted, and
        warned about once per pool).
        """
        if command.command_id in self._pending:
            self.duplicates += 1
            return DUPLICATE
        if self.max_size is not None and len(self._pending) >= self.max_size:
            self.dropped += 1
            if not self._overflow_warned:
                self._overflow_warned = True
                warnings.warn(
                    f"txpool overflow: dropped command {command.command_id!r} "
                    f"(pool at max_size={self.max_size}); further drops are "
                    f"counted in TxPool.dropped without warning",
                    TxPoolOverflowWarning,
                    stacklevel=2,
                )
            return OVERFLOW
        self._pending[command.command_id] = command
        if len(self._pending) > self.high_watermark:
            self.high_watermark = len(self._pending)
        return ADMITTED

    def peek_batch(self, batch_size: int, exclude: Collection[str] = ()) -> List[Command]:
        """The first ``batch_size`` pending commands not in ``exclude``, in arrival order.

        Nothing is removed: a command leaves the pool when a block carrying
        it commits.  ``exclude`` is the ids the proposer's uncommitted
        ancestors already carry (see :meth:`BaseReplica.next_batch`), so
        pipelined blocks order distinct commands; because the caller derives
        it from the chain it extends, a command in a block a view change
        abandoned is not excluded on the new chain and is proposed again.
        """
        if batch_size < 0:
            raise ValueError("batch size cannot be negative")
        result = []
        for command_id, command in self._pending.items():
            if len(result) >= batch_size:
                break
            if command_id not in exclude:
                result.append(command)
        return result

    def remove(self, command_ids: Iterable[str]) -> int:
        """Remove committed commands; returns how many were present."""
        removed = 0
        for command_id in command_ids:
            if command_id in self._pending:
                del self._pending[command_id]
                removed += 1
        return removed
