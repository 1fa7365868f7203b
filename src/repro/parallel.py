"""Sharded parallel execution of the workload generator.

The paper's probe digests 4.3 PB with a Spark cluster; our equivalent
splits the synthetic capture across worker processes the way Tstat
deployments split a capture across trace files. A *shard* is a
contiguous range of customer ids; each shard draws from its own RNG
stream spawned from the config seed with
``np.random.SeedSequence(seed).spawn(n_shards)``, so the merged output
is **bit-identical regardless of how many workers execute the shards**
— one process or eight, the same flows come out in the same order.

Workers are forked (copy-on-write) by :class:`ShardWorkerPool`, the
one pool behind one-shot and streaming generation, so the parent's
fully initialized :class:`~repro.traffic.workload.WorkloadGenerator`
— population, categorical pools, precomputed site tables — is
inherited for free instead of being pickled per task. On platforms without ``fork`` (or
when process creation fails, e.g. in a sandbox) execution falls back
to an in-process loop over the same shards, preserving output
byte-for-byte.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults import NO_FAULTS, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.dataset import FlowFrame
    from repro.traffic.workload import WorkloadGenerator

#: Default upper bound on the number of shards.
DEFAULT_MAX_SHARDS = 8

#: Customers per shard the default plan aims for. Sharding splits the
#: vectorized per-(country, service) batches, so below this size the
#: fixed per-batch numpy cost outweighs any parallelism win and the
#: default collapses to fewer (down to one) wide shards.
TARGET_SHARD_CUSTOMERS = 150


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous customer-id range assigned to one RNG stream.

    ``index``/``n_shards`` identify the spawned seed stream;
    ``lo``/``hi`` bound the half-open customer-index range
    ``[lo, hi)`` the shard generates flows for.
    """

    index: int
    n_shards: int
    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo


def plan_shards(n_customers: int, n_shards: int) -> List[ShardSpec]:
    """Split ``n_customers`` into ``n_shards`` contiguous ranges.

    The split depends only on its arguments — never on worker count —
    which is what makes the parallel output deterministic. Ranges
    differ in size by at most one customer.

    >>> [(s.lo, s.hi) for s in plan_shards(10, 3)]
    [(0, 4), (4, 7), (7, 10)]
    """
    if n_customers <= 0:
        raise ValueError(f"need at least one customer (got {n_customers})")
    n_shards = max(1, min(n_shards, n_customers))
    base, extra = divmod(n_customers, n_shards)
    shards: List[ShardSpec] = []
    lo = 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < extra else 0)
        shards.append(ShardSpec(index=index, n_shards=n_shards, lo=lo, hi=hi))
        lo = hi
    return shards


def default_shard_count(n_customers: int) -> int:
    """Shard count used when the config does not pin one.

    Derived from the population size only (*not* from the machine), so
    the same config yields the same RNG streams everywhere.

    >>> [default_shard_count(n) for n in (100, 300, 600, 5000)]
    [1, 2, 4, 8]
    """
    return max(1, min(DEFAULT_MAX_SHARDS, n_customers // TARGET_SHARD_CUSTOMERS))


def resolve_workers(n_workers: Union[int, str, None], slots: int = 1) -> int:
    """Map the ``n_workers`` knob to a concrete process count.

    ``None``, ``0`` or the string ``"auto"`` mean "one per *available*
    core": the CPUs this process may actually run on
    (``os.sched_getaffinity``), not the machine total (``os.cpu_count``)
    — in a container or cgroup-restricted CI runner the two differ, and
    sizing the fork pool by the machine total oversubscribes the quota.
    Negative counts and other strings are rejected.

    ``slots`` divides the automatic sizing between sibling processes
    that share the affinity set: a ``repro.fleet`` worker running
    alongside ``max_parallel - 1`` peers passes ``slots=max_parallel``
    and gets ``max(1, cores // slots)`` instead of every sibling
    claiming all cores. Explicit counts are honoured verbatim — the
    user pinned them.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1 (got {slots})")
    if isinstance(n_workers, str):
        if n_workers.strip().lower() == "auto":
            n_workers = 0
        else:
            raise ValueError(
                f"n_workers must be an integer or 'auto' (got {n_workers!r})"
            )
    if n_workers is None or n_workers == 0:
        try:
            affinity = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            affinity = os.cpu_count() or 1
        return max(1, affinity // slots)
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0 (got {n_workers})")
    return n_workers


# -- streaming windows -------------------------------------------------------


def spawn_window_seed(
    seed: int, shard: ShardSpec, n_windows: int, window_index: int
) -> np.random.SeedSequence:
    """The RNG stream of one (shard, window) cell of a streaming capture.

    Derived in two spawn levels — shard first, then window — so the
    stream is a pure function of ``(seed, n_shards, shard index,
    n_windows, window index)``: any subset of windows can be
    (re)generated in any order, by any process, and sample the same
    flows. This is what makes checkpoint/resume bit-identical (see
    :mod:`repro.stream.checkpoint`).
    """
    shard_seq = np.random.SeedSequence(seed).spawn(shard.n_shards)[shard.index]
    return shard_seq.spawn(n_windows)[window_index]


# -- the worker pool --------------------------------------------------------


#: (generator, injector, parent_pid) of a pool. Forked workers inherit
#: it copy-on-write through :data:`_POOL_CONTEXT` — no pickling of the
#: population or the precomputed site tables — and the in-process path
#: passes the same tuple explicitly. ``parent_pid`` gates crash
#: injection: only a forked child may die, never the parent.
_Context = Tuple["WorkloadGenerator", FaultInjector, int]

_POOL_CONTEXT: Optional[_Context] = None

#: One pool task: a shard and, for a streaming window, its
#: ``(n_windows, window_index, day_lo, day_hi)``; ``None`` is the
#: one-shot capture (the shard's own stream over every day).
_PoolTask = Tuple[ShardSpec, Optional[Tuple[int, int, int, int]]]


def _run_task(context: _Context, task: _PoolTask) -> Optional["FlowFrame"]:
    generator, injector, parent_pid = context
    shard, window = task
    if window is None:
        return generator.generate_shard(shard)
    n_windows, window_index, day_lo, day_hi = window
    if os.getpid() != parent_pid and injector.crash_worker(
        window_index, shard.index
    ):
        # A forked worker dying mid-shard: no cleanup, no return value,
        # the parent's pool surfaces BrokenProcessPool.
        os._exit(66)
    rng = np.random.default_rng(
        spawn_window_seed(generator.config.seed, shard, n_windows, window_index)
    )
    return generator.generate_shard_days(shard, day_lo, day_hi, rng)


def _run_pool_task(task: _PoolTask) -> Optional["FlowFrame"]:
    assert _POOL_CONTEXT is not None, "pool worker started without context"
    return _run_task(_POOL_CONTEXT, task)


class ShardWorkerPool:
    """The fork pool that generates shards, for one-shot and streaming
    captures alike.

    The pool forks **once** — the workers inherit the fully initialized
    generator copy-on-write via :data:`_POOL_CONTEXT` — and then serves
    every call over the same processes; only the tiny ``(shard,
    window)`` coordinates cross the pipe per task. Output is in shard
    order and byte-identical for any worker count, because each shard
    (or (shard, window) cell) draws from its own spawned RNG stream.

    ``shards`` defaults to the generator's full plan; a ``repro.fleet``
    partition passes its subset. The pool never runs more workers than
    it has shards.

    Fork-with-threads note: with the ``fork`` start method the executor
    launches *all* workers in its constructor, so creating the pool
    before any sibling thread starts (the pipelined producer's commit
    thread) guarantees the children never inherit a mid-held lock. A
    worker killed mid-call breaks the executor; the call is then
    regenerated in-process (identical frames) and the pool is lazily
    re-forked for the next call — the only fork that can race a live
    thread, and the children run nothing but generator code.

    On platforms without ``fork``, with one worker, or when process
    creation fails outright, every call runs in-process.
    """

    def __init__(
        self,
        generator: "WorkloadGenerator",
        n_workers: int,
        injector: Optional[FaultInjector] = None,
        shards: Optional[Sequence[ShardSpec]] = None,
    ) -> None:
        self.generator = generator
        self.injector = injector if injector is not None else NO_FAULTS
        self.shards = list(shards) if shards is not None else generator.shard_plan()
        self.n_workers = max(0, min(n_workers, len(self.shards)))
        self._executor: Optional[ProcessPoolExecutor] = None
        self._serial_forever = (
            self.n_workers <= 1
            or "fork" not in multiprocessing.get_all_start_methods()
        )

    # -- lifecycle -----------------------------------------------------

    def _ensure_executor(self) -> Optional[ProcessPoolExecutor]:
        global _POOL_CONTEXT
        if self._executor is not None or self._serial_forever:
            return self._executor
        _POOL_CONTEXT = (self.generator, self.injector, os.getpid())
        try:
            context = multiprocessing.get_context("fork")
            # Forks all n_workers children right here (fork pools do not
            # spawn lazily) — each snapshots _POOL_CONTEXT.
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=context
            )
        except (OSError, PermissionError) as exc:  # pragma: no cover
            warnings.warn(
                f"worker pool unavailable ({exc}); generating in-process",
                RuntimeWarning,
                stacklevel=4,
            )
            self._serial_forever = True
            _POOL_CONTEXT = None
        return self._executor

    def warm(self) -> None:
        """Fork the workers now (no-op when running serially).

        Call before starting any sibling thread: fork pools launch all
        their children inside the executor constructor, so a warmed
        pool's workers are guaranteed thread-free copies.
        """
        self._ensure_executor()

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        global _POOL_CONTEXT
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        _POOL_CONTEXT = None

    def __enter__(self) -> "ShardWorkerPool":
        self._ensure_executor()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- work ----------------------------------------------------------

    def generate(self) -> List[Optional["FlowFrame"]]:
        """The one-shot capture's shard frames, in shard order (a shard
        whose customers produce no flows yields ``None``)."""
        return self._run([(shard, None) for shard in self.shards], "the capture")

    def generate_window(
        self, n_windows: int, window_index: int, day_lo: int, day_hi: int
    ) -> List[Optional["FlowFrame"]]:
        """One streaming window's shard frames, in shard order."""
        window = (n_windows, window_index, day_lo, day_hi)
        return self._run(
            [(shard, window) for shard in self.shards], f"window {window_index}"
        )

    def _run(
        self, tasks: List[_PoolTask], what: str
    ) -> List[Optional["FlowFrame"]]:
        # A worker crash costs the pool, not the run: the tasks are
        # regenerated in-process from the same RNG streams.
        executor = self._ensure_executor()
        if executor is not None:
            try:
                return list(executor.map(_run_pool_task, tasks))
            except BrokenProcessPool:
                self.injector.stats.worker_crashes += 1
                warnings.warn(
                    f"pool worker died generating {what}; regenerating its "
                    "shards in-process (output unchanged) and re-forking "
                    "the pool",
                    RuntimeWarning,
                    stacklevel=3,
                )
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
        local = (self.generator, self.injector, os.getpid())
        return [_run_task(local, task) for task in tasks]
