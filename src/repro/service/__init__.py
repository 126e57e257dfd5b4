"""The optimization service: a long-running HTTP job server.

``repro serve`` turns the one-shot experiment CLI into a service: plans
travel over HTTP as their :func:`~repro.experiments.plan.plan_to_dict`
payloads, dedup by content fingerprint, queue with priorities under
bounded backpressure, and execute on one warm runtime — a shared
persistent :class:`~repro.runtime.cache.EvaluationCache`, whose store
lets a restarted server resume in-flight jobs bit-identically, and one
shared :class:`~repro.runtime.pool.WorkerPool`.

Layering:

* :mod:`repro.service.wire` — submission parsing / structured errors;
* :mod:`repro.service.queue` — the bounded priority queue;
* :mod:`repro.service.jobs` — durable job records, dedup registry;
* :mod:`repro.service.server` — the HTTP server + executor thread;
* :mod:`repro.service.client` — the stdlib client (``repro submit``);
* :mod:`repro.service.plans` — CLI-knob -> plan builders.

See ``docs/service.md``.
"""
