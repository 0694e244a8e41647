"""Grid construction: threads -> warps -> blocks -> SMs.

Block-to-SM assignment is round-robin by default; under thread
randomisation (paper Sec. 3.5) the assignment is shuffled, which changes
which blocks share a store buffer and how their warps interleave — while
necessarily respecting warp and block membership, exactly the constraint
the paper imposes to avoid barrier divergence and broken intra-warp
synchronisation.
"""

from __future__ import annotations

import os

import numpy as np

from .block import Block
from .kernel import Kernel, LaunchConfig
from .thread import ThreadContext
from .warp import SimThread, Warp


class Grid:
    """All blocks of one kernel launch.

    ``n_live`` counts threads whose coroutines have not finished; the
    engine's burst loop decrements it exactly once per thread (when a
    coroutine raises ``StopIteration``), which makes the per-tick
    termination check O(1) instead of a scan over every thread.

    The objects depend only on the launch geometry, so a process builds
    one grid per :class:`LaunchConfig` and :meth:`relaunch`-es it for
    every launch of that geometry (see :func:`build_grid`).
    """

    __slots__ = ("blocks", "threads", "warps", "n_live")

    def __init__(self, blocks: list[Block]):
        self.blocks = blocks
        self.threads = [t for b in blocks for t in b.threads]
        self.warps = [w for b in blocks for w in b.warps]
        for index, warp in enumerate(self.warps):
            warp.index = index
        self.n_live = len(self.threads)

    def live_threads(self) -> int:
        """Number of unfinished threads (the maintained counter).

        Under pytest the counter is cross-checked against the O(n) scan
        it replaced, so any missed or double-counted transition in the
        engine fails loudly instead of silently skewing termination.
        """
        n = self.n_live
        if os.environ.get("PYTEST_CURRENT_TEST"):
            scan = sum(1 for t in self.threads if not t.done)
            assert n == scan, (
                f"live-thread counter {n} disagrees with done-flag scan "
                f"{scan}"
            )
        return n

    def relaunch(
        self,
        kernel: Kernel,
        n_sms: int,
        fence_sites: frozenset[str],
        randomise_rng: np.random.Generator | None,
    ) -> None:
        """Set every per-run field for a launch of ``kernel``.

        Blocks go to SMs round-robin, or shuffled (one draw, before any
        coroutine exists) under randomisation; every thread gets a fresh
        coroutine; and whatever engine-side state the previous run left
        behind is cleared (a timed-out run may stop with threads holding
        a stalled op, parked at a barrier or asleep after a fence).
        """
        sm_of_block = list(range(len(self.blocks)))
        if randomise_rng is not None:
            randomise_rng.shuffle(sm_of_block)
        for block, sm in zip(self.blocks, sm_of_block):
            sm %= n_sms
            block.sm = sm
            for thread in block.threads:
                ctx = thread.ctx
                ctx.fence_sites = fence_sites
                thread.gen = kernel.instantiate(ctx)
                thread.sm = sm
                thread.op = None
                thread.op_state.clear()
                thread.to_send = None
                thread.done = False
                thread.at_barrier = False
                thread.sleep_until = 0
                thread.latency = 0
        for warp in self.warps:
            warp.n_active = len(warp.threads)
        self.n_live = len(self.threads)


#: The process's grid of every launch geometry it has run, built the
#: first time :func:`build_grid` sees the config.
_GRIDS: dict[LaunchConfig, Grid] = {}


def build_grid(
    kernel: Kernel,
    config: LaunchConfig,
    n_sms: int,
    fence_sites: frozenset[str] = frozenset(),
    randomise_rng: np.random.Generator | None = None,
) -> Grid:
    """The process's grid for ``config``, launched for ``kernel``.

    Threads, warps and blocks depend only on the launch geometry, so
    they are built the first time a config is seen and shared by every
    later launch of it, whatever the kernel, chip or engine;
    :meth:`Grid.relaunch` then sets every per-run field (block SMs,
    coroutines, fence sites, whatever a timed-out run left behind).
    Each thread's SM is stored on the thread itself (blocks are pinned
    to SMs for the whole launch), so the engine needs no per-run
    key-to-SM mapping.  A grid serves one launch at a time: the engine
    runs each launch to its end before the next one starts.
    """
    grid = _GRIDS.get(config)
    if grid is None:
        grid = _GRIDS[config] = Grid(_blocks(config))
    grid.relaunch(kernel, n_sms, fence_sites, randomise_rng)
    return grid


def _blocks(config: LaunchConfig) -> list[Block]:
    """Group the threads of ``config`` into warps and blocks."""
    blocks = []
    key = 0
    for block_id in range(config.grid_dim):
        warps = []
        for warp_id in range(config.warps_per_block):
            lo = warp_id * config.warp_size
            hi = min(lo + config.warp_size, config.block_dim)
            threads = []
            for tid in range(lo, hi):
                ctx = ThreadContext(
                    tid=tid,
                    block_id=block_id,
                    block_dim=config.block_dim,
                    grid_dim=config.grid_dim,
                )
                threads.append(SimThread(key, ctx))
                key += 1
            warps.append(Warp(block_id, warp_id, threads))
        blocks.append(Block(block_id, warps))
    return blocks
