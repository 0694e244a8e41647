"""Process-pool execution of the embarrassingly parallel run loops.

The paper's numbers rest on brute scale — nearly half a billion litmus
executions and hour-long application campaigns — and every one of those
runs is independent.  This subsystem shards the four hot loops (litmus
execution batches, the tuning search grids, the campaign grid and
candidate fence-set checks) across worker processes while keeping the
statistics *bit-identical* to a serial run.

The determinism contract (see ``docs/ARCHITECTURE.md``):

* every unit of work seeds itself with :func:`repro.rng.derive_seed`
  from the experiment seed and the unit's *global* index or grid
  coordinates — never from shard-local state;
* shard boundaries therefore cannot influence any drawn random number,
  and merged results are independent of chunking and worker count;
* workers receive picklable *specs* (hardware profiles, litmus tests,
  stressing strategies — all plain frozen dataclasses) and construct
  live engines locally; engines and memory systems never cross process
  boundaries.
"""

from .executor import (
    SERIAL,
    ParallelConfig,
    close_shared_pools,
    jobs_arg,
    parallel_map,
    shard_ranges,
    shared_pool,
)
from .plan import WorkUnit, execute_unit, register_executor, run_units
from .merge import (
    CellShard,
    CheckShard,
    LitmusShard,
    merge_cell_shards,
    merge_check_shards,
    merge_litmus_shards,
)

__all__ = [
    "ParallelConfig",
    "SERIAL",
    "parallel_map",
    "shard_ranges",
    "shared_pool",
    "close_shared_pools",
    "jobs_arg",
    "WorkUnit",
    "execute_unit",
    "register_executor",
    "run_units",
    "LitmusShard",
    "CellShard",
    "CheckShard",
    "merge_litmus_shards",
    "merge_cell_shards",
    "merge_check_shards",
]
