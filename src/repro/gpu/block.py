"""Thread blocks: barrier scope and SM residency."""

from __future__ import annotations

from .warp import SimThread, Warp


class Block:
    """A CUDA thread block resident on one SM."""

    __slots__ = ("block_id", "sm", "warps", "threads")

    def __init__(self, block_id: int, warps: list[Warp]):
        self.block_id = block_id
        #: Set per run by :meth:`repro.gpu.grid.Grid.relaunch`.
        self.sm = 0
        self.warps = warps
        self.threads: list[SimThread] = [
            t for warp in warps for t in warp.threads
        ]

    def barrier_ready(self) -> bool:
        """True when the block barrier can release.

        Lenient CUDA interpretation: threads that already exited do not
        hold up the barrier (real barrier divergence is undefined
        behaviour; the applications studied here never rely on it).
        """
        any_waiting = False
        for t in self.threads:
            if t.at_barrier:
                any_waiting = True
            elif not t.done:
                return False
        return any_waiting

    def release_barrier(self) -> list[SimThread]:
        """Release all waiting threads; returns them for memory drain."""
        released = []
        for t in self.threads:
            if t.at_barrier:
                t.at_barrier = False
                released.append(t)
        return released
