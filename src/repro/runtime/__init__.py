"""Execution runtime: parallel sweeps, evaluation caching, instrumentation.

The experiments of the paper (Tables 2-3, the Pareto sweep, the volume
study) decompose into independent *cells* — one ``TAM_Optimization`` or
grouping run per (``W_max``, group count) pair.  This package provides the
machinery to run those cells fast and observably:

* :mod:`repro.runtime.executor` — the sweep executor: deterministic
  result ordering, one per-cell attempt loop (retries, backoff, breaker,
  validation) and a graceful serial fallback.
* :mod:`repro.runtime.pool` — the work-stealing worker pool behind every
  parallel sweep: persistent warm workers with shard queues, cell
  batching, dead-worker reassignment and a shared warm-state cache.
* :mod:`repro.runtime.cache` — a keyed evaluation cache (in-memory LRU
  plus an optional on-disk JSON store) memoizing grouping results and
  architecture optimizations by a stable content hash of their inputs.
* :mod:`repro.runtime.instrumentation` — counters and wall/CPU timers
  threaded through the optimizer, the compactor and the schedulers,
  emitted as a structured JSON run report.
* :mod:`repro.runtime.supervision` — the declarative :class:`RunPolicy`
  (retry budgets with deterministic backoff, deadlines, a failure-rate
  circuit breaker), worker-pool retirement, and the resource
  guards (disk preflight, worker RSS watchdog) every execution layer
  consults.
* :mod:`repro.runtime.codec` — exact JSON round-trips for the cached
  result objects.
"""
