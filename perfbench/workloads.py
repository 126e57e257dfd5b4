"""The benchmark's workloads: a ``repro table`` regeneration and a
``repro serve`` optimize mix, with their correctness checks.

Every workload process is a child of the benchmark, spawned from the
checkout's ``src`` tree with ``TMPDIR`` inside the checkout (the C
engines cache their compiled objects there).  Each repetition gets fresh
output and state directories; :func:`measure` repeats a
workload until the run's time budget is spent and returns one sample
per repetition.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPANS_PY = BENCH / "spans.py"

#: Deadline for one workload process (a hung program fails the run).
PROCESS_TIMEOUT = 150.0


@dataclass(frozen=True)
class TableWorkload:
    soc: str
    patterns: int


TABLE_WORKLOADS = {
    "table3-p93791-n10k": TableWorkload("p93791", 10_000),
}
SERVICE_WORKLOAD = "service-optimize-mix"
WORKLOADS = (*TABLE_WORKLOADS, SERVICE_WORKLOAD)

#: The service mix: optimize plans at N_r=10k over these axes.
MIX_SOCS = ("p34392", "p93791")
MIX_WIDTHS = (8, 16, 24, 32, 40, 48, 56, 64)
MIX_PARTS = (1, 2, 4, 8)
MIX_PATTERN_SEEDS = (1, 2, 3)
MIX_PATTERNS = 10_000
MIX_REPEAT_SHARE = 0.3
MIX_CLIENT_THREADS = 2
SERVICE_JOBS = 2

#: Per-submission phases the traced service run reports (seconds each).
SERVICE_PHASES = ("submit_s", "queue_wait_s", "run_s", "deliver_s")


def child_env() -> dict:
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def repro_command(argv: list[str], spans_out: Path | None) -> list[str]:
    """``python -m repro ARGV``, or the same under the span tracer."""
    if spans_out is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, str(SPANS_PY), str(spans_out), "--", *argv]


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------


@dataclass
class Exited:
    code: int
    wall: float
    cpu: float     # user + system seconds of the process and its children
    rss_mb: float  # largest resident set of the process or any child


def _reap(proc: subprocess.Popen, start: float, timeout: float) -> Exited:
    """Wait for ``proc`` with ``wait4`` (rusage of the whole tree);
    kill it when ``timeout`` passes."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exited(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def run_process(command: list[str], directory: Path) -> Exited:
    """Run one workload process to completion, output kept in files."""
    with open(directory / "stdout.txt", "wb") as out, \
            open(directory / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=out, stderr=err
        )
        return _reap(proc, start, PROCESS_TIMEOUT)


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(rep, seconds: float, minimum: int = 1) -> list[dict]:
    """Call ``rep(index)`` until starting another repetition would run
    past ``seconds`` (at least ``minimum`` times)."""
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        samples.append(rep(len(samples)))
        samples[-1]["span"] = time.perf_counter() - began
        elapsed = time.perf_counter() - start
        typical = sorted(s["span"] for s in samples)[len(samples) // 2]
        if len(samples) >= minimum and elapsed + typical > seconds:
            return samples


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _store_bytes(directory: Path) -> int:
    """Bytes held by an evaluation cache store (its JSON entries)."""
    if not directory.is_dir():
        return 0
    return sum(path.stat().st_size for path in directory.glob("*.json"))


def layer_counts(counters: dict) -> dict:
    """The per-layer counts a run report (or a traced server) exposes."""
    tried = counters.get("optimizer.merges_tried", 0) + counters.get(
        "optimizer.core_moves_tried", 0
    )
    return {
        "vertical.patterns_in": counters.get("compaction.patterns_in", 0),
        "vertical.patterns_out": counters.get("compaction.patterns_out", 0),
        "vertical.words_compared": counters.get(
            "compaction.bitset.words_compared", 0
        ),
        "grouping.residual_patterns": counters.get(
            "compaction.residual_patterns", 0
        ),
        "optimizer.merges_tried": counters.get("optimizer.merges_tried", 0),
        "optimizer.core_moves_tried": counters.get(
            "optimizer.core_moves_tried", 0
        ),
        "optimizer.moves_pruned": counters.get("optimizer.moves_pruned", 0),
        "optimizer.prune_ratio": (
            counters.get("optimizer.moves_pruned", 0) / tried if tried else 0.0
        ),
        "movescan.moves_scored": counters.get("movescan.moves_scored", 0),
        "evaluator.rail_stats_computed": counters.get(
            "evaluator.rail_stats_computed", 0
        ),
        "plan.cells_executed": counters.get("plan.cells_executed", 0),
        "plan.cells_cached": counters.get("plan.cells_cached", 0)
        + counters.get("plan.cells_resumed", 0),
    }


# ---------------------------------------------------------------------------
# Correctness.
# ---------------------------------------------------------------------------


def _soc(name: str):
    from repro.soc.benchmarks import load_benchmark

    return load_benchmark(name)


def check_table(soc, table: dict) -> list[str]:
    """Every row: T_min is the minimum of its T_g columns, and every
    T_g and T_[8] is at least the ``bound_report`` lower bound of the
    grouping that prices it."""
    from repro.compaction.groups import SITestGroup
    from repro.core.bounds import bound_report

    groups = {
        int(parts): tuple(
            SITestGroup(
                group_id=index,
                cores=frozenset(group["cores"]),
                patterns=group["patterns"],
                original_patterns=group["original_patterns"],
                is_residual=group["is_residual"],
            )
            for index, group in enumerate(entry["groups"])
        )
        for parts, entry in table["compaction"].items()
    }
    problems = []
    for row in table["rows"]:
        w_max = row["w_max"]
        t_grouped = {int(k): v for k, v in row["t_grouped"].items()}
        if not t_grouped or row["t_min"] != min(t_grouped.values()):
            problems.append(f"W_max={w_max}: T_min is not min(T_g)")
        bounds = {
            parts: bound_report(soc, w_max, groups[parts]).t_total_bound
            for parts in t_grouped
        }
        for parts, t_soc in t_grouped.items():
            if t_soc < bounds[parts]:
                problems.append(
                    f"W_max={w_max}: T_g{parts}={t_soc} below bound "
                    f"{bounds[parts]}"
                )
        if bounds and row["t_baseline"] < min(bounds.values()):
            problems.append(f"W_max={w_max}: T_[8] below every bound")
    if not table["rows"]:
        problems.append("table has no rows")
    return problems


_TOTAL = re.compile(r"^T_total = (\d+) cc")
_RAIL = re.compile(r"^\s+TAM\d+: width\s+(\d+), cores \[([\d, ]*)\]")


def check_optimize(soc, w_max: int, rendered: str) -> tuple[int, list[str]]:
    """Parse an optimize job's rendering; returns ``(T_soc, problems)``:
    rail widths within W_max, every core on exactly one rail, T_soc at
    least the InTest lower bound."""
    from repro.core.bounds import bound_report

    lines = rendered.splitlines()
    match = _TOTAL.match(lines[0]) if lines else None
    if match is None:
        return 0, ["no T_total line"]
    t_soc = int(match.group(1))
    widths, cores = [], []
    for line in lines[1:]:
        rail = _RAIL.match(line)
        if rail is None:
            break
        widths.append(int(rail.group(1)))
        cores.extend(int(c) for c in rail.group(2).split(",") if c.strip())
    problems = []
    if not widths or sum(widths) > w_max:
        problems.append(f"rail widths {widths} exceed W_max={w_max}")
    if sorted(cores) != sorted(core.core_id for core in soc):
        problems.append("cores not covered exactly once")
    bound = bound_report(soc, w_max).t_total_bound
    if t_soc < bound:
        problems.append(f"T_soc={t_soc} below bound {bound}")
    return t_soc, problems


# ---------------------------------------------------------------------------
# Table workloads.
# ---------------------------------------------------------------------------


def warm_up_table(spec: TableWorkload, work: Path) -> list[str]:
    """Discarded run: fills the page cache and the C engines' build
    cache, nothing else (users pay generation on every CLI run).
    Returns its problems: the warm-up's time is discarded, not its
    failure."""
    directory = fresh_dir(work, "warmup")
    code = (
        "from repro.runtime.pool import warm_engines; warm_engines(); "
        "from repro.cli import main; "
        f"main(['table', {spec.soc!r}, '--patterns', '2000', "
        "'--widths', '8', '--parts', '1', '2'])"
    )
    exited = run_process([sys.executable, "-c", code], directory)
    return [f"warm-up exit code {exited.code}"] if exited.code else []


def table_rep(spec: TableWorkload, seed: int, directory: Path,
              traced: bool) -> dict:
    """One ``repro table`` process; the sample carries its metrics."""
    argv = [
        "table", spec.soc, "--patterns", str(spec.patterns),
        "--seed", str(seed), "--verify",
        "--profile", str(directory / "report.json"),
        "--json", str(directory / "table.json"),
    ]
    spans_out = directory / "spans.json" if traced else None
    exited = run_process(repro_command(argv, spans_out), directory)
    sample = {
        "traced": traced, "wall": exited.wall, "cpu": exited.cpu,
        "rss_mb": exited.rss_mb, "attempted": 1, "failed": 1,
    }
    if exited.code != 0:
        sample["problems"] = [f"exit code {exited.code}"]
        return sample
    try:
        report = _load_json(directory / "report.json")
        table = _load_json(directory / "table.json")
        problems = check_table(_soc(spec.soc), table)
        if report["plan"].get("status") != "complete":
            problems.append(f"plan status {report['plan'].get('status')}")
        sample.update(
            setup=exited.wall - report["wall_seconds"],
            tsoc=sum(row["t_min"] for row in table["rows"]),
            counts=layer_counts(report["counters"]),
        )
        if traced:
            sample["spans"] = _load_json(spans_out)
    except (OSError, ValueError, KeyError, TypeError) as error:
        problems = [f"unreadable output: {type(error).__name__}: {error}"]
    sample.update(failed=int(bool(problems)), problems=problems)
    return sample


def run_table(name: str, seed: int, seconds: float, trace: bool,
              work: Path) -> list[dict]:
    spec = TABLE_WORKLOADS[name]
    warm_up = warm_up_table(spec, work)

    def rep(index: int) -> dict:
        directory = fresh_dir(work, f"rep{index}")
        sample = table_rep(spec, seed, directory,
                           traced=bool(trace and index % 2))
        shutil.rmtree(directory, ignore_errors=True)
        return sample

    samples = measure(rep, seconds, minimum=2 if trace else 1)
    samples[0]["problems"] += warm_up
    samples[0]["failed"] += len(warm_up)
    samples[0]["attempted"] += len(warm_up)
    return samples


# ---------------------------------------------------------------------------
# Service workload.
# ---------------------------------------------------------------------------


def _mix_shape() -> list[tuple]:
    """The fixed shape of the mix: ``(soc, pattern seed index, width
    index, i)`` per submission.  Every (SOC, pattern seed, W_max) is
    optimized under two group counts, and each (SOC, pattern seed, i)
    grouping serves four widths: a quarter of the executed jobs build a
    grouping cold, the rest hit it in the cache.  The plans are shuffled
    and 30% of the slots repeat an earlier submission."""
    rng = random.Random(0)
    fresh = [
        (soc, seed_index, width_index,
         MIX_PARTS[(position + shift) % len(MIX_PARTS)])
        for soc in MIX_SOCS
        for seed_index in range(len(MIX_PATTERN_SEEDS))
        for order in [rng.sample(range(len(MIX_WIDTHS)), len(MIX_WIDTHS))]
        for shift in (0, 2)
        for position, width_index in enumerate(order)
    ]
    rng.shuffle(fresh)
    total = round(len(fresh) / (1 - MIX_REPEAT_SHARE))
    repeat_slots = set(rng.sample(range(1, total), total - len(fresh)))
    shape: list[tuple] = []
    plans = iter(fresh)
    for slot in range(total):
        shape.append(rng.choice(shape) if slot in repeat_slots else next(plans))
    return shape


def service_mix(seed: int) -> list[tuple]:
    """The submissions ``(soc, W_max, i, pattern seed)`` of one run.

    The seed's RNG draws, per SOC, which pattern seed fills each seed
    slot of the fixed shape and, per (SOC, pattern seed), which W_max
    fills each width slot.  The order, the cold and warm groupings and
    the repeats keep their places, so every seed queues the same kind
    of work at the same point and runs stay comparable across seeds.
    """
    rng = random.Random(seed)
    pattern_seeds = {
        soc: rng.sample(MIX_PATTERN_SEEDS, len(MIX_PATTERN_SEEDS))
        for soc in MIX_SOCS
    }
    widths = {
        (soc, seed_index): rng.sample(MIX_WIDTHS, len(MIX_WIDTHS))
        for soc in MIX_SOCS
        for seed_index in range(len(MIX_PATTERN_SEEDS))
    }
    return [
        (soc, widths[soc, seed_index][width_index], parts,
         pattern_seeds[soc][seed_index])
        for soc, seed_index, width_index, parts in _mix_shape()
    ]


def _plan_payloads(mix: list[tuple]) -> dict:
    from repro.experiments.plan import plan_to_dict
    from repro.service.plans import build_plan

    socs = {name: _soc(name) for name in MIX_SOCS}
    return {
        entry: plan_to_dict(
            build_plan(
                "optimize", socs[entry[0]], patterns=MIX_PATTERNS,
                wmax=entry[1], parts=entry[2], seed=entry[3],
            )
        )
        for entry in set(mix)
    }


def _wait_until(ready, what: str, timeout: float = 60.0):
    """Poll ``ready()`` until it returns a true value, and return it."""
    deadline = time.monotonic() + timeout
    while True:
        value = ready()
        if value:
            return value
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.005)


def _server_url(path: Path, proc: subprocess.Popen) -> str | None:
    """The URL from the server's first line, once it is printed."""
    if proc.poll() is not None:
        raise RuntimeError(f"server exited {proc.returncode} at start")
    for line in path.read_text(errors="replace").splitlines():
        if line.startswith("serving on "):
            return line[len("serving on "):].strip()
    return None


def _healthy(client) -> bool:
    try:
        client.health()
    except OSError:
        return False
    return True


def _children(pid: int) -> set[int]:
    """Direct children of ``pid`` (Linux /proc)."""
    found: set[int] = set()
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.update(int(child) for child in handle.read().split())
    except OSError:
        pass
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _stop_server(proc: subprocess.Popen, start: float) -> tuple[Exited, list]:
    """SIGINT the server; returns its exit record and the problems: a
    nonzero exit or any worker process that outlived it."""
    workers = _children(proc.pid)
    problems = []
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    exited = _reap(proc, start, 30.0)
    if exited.code != 0:
        problems.append(f"server exit code {exited.code}")
    for pid in sorted(workers):
        deadline = time.monotonic() + 5.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if _alive(pid):
            problems.append(f"worker {pid} outlived the server")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    return exited, problems


def _submit_one(client, payload: dict) -> dict:
    from repro.service.client import ServiceError

    began = time.perf_counter()
    try:
        response = client.submit(payload)
        submitted = time.perf_counter()
        outcome = client.wait(response["job"]["id"], timeout=120.0)
    except (ServiceError, OSError, TimeoutError, ValueError, KeyError) as error:
        return {"error": f"{type(error).__name__}: {error}"}
    return {
        "began": began,
        "submit_s": submitted - began,
        "seen": time.perf_counter(),
        "seen_epoch": time.time(),
        "joined": not response["created"],
        "job": response["job"]["id"],
        "fingerprint": response["fingerprint"],
        "outcome": outcome,
    }


def _drive(client, mix: list[tuple], payloads: dict) -> list[dict]:
    """Closed loop: each client thread keeps one submission outstanding
    and takes the next entry of ``mix`` when it completes."""
    lock = threading.Lock()
    cursor = iter(range(len(mix)))
    records: list[dict] = [{"error": "not run"}] * len(mix)

    def loop() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            records[index] = _submit_one(client, payloads[mix[index]])

    threads = [
        threading.Thread(target=loop, daemon=True)
        for _ in range(MIX_CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=PROCESS_TIMEOUT)
    return records


def _prime(client, payload: dict) -> None:
    """A tiny job: the first job is what starts the warm pool."""
    response = client.submit(payload)
    outcome = client.wait(response["job"]["id"], timeout=60.0)
    if outcome["job"]["state"] != "ok":
        raise RuntimeError(f"priming job ended {outcome['job']['state']}")


def _prime_payload() -> dict:
    from repro.experiments.plan import plan_to_dict
    from repro.service.plans import build_plan

    return plan_to_dict(build_plan("optimize", _soc("d695"), wmax=8))


def service_session(directory: Path, traced: bool, mix=None,
                    payloads=None) -> dict:
    """Spawn ``repro serve``, set it up (first ``/healthz`` 200 and the
    warm pool started), optionally drive the mix, then stop it.  A
    server that fails to start, answer or stay up fails the session."""
    from repro.service.client import ServiceClient, ServiceError

    argv = [
        "serve", "--port", "0", "--state-dir", str(directory / "state"),
        "--jobs", str(SERVICE_JOBS), "--verify",
    ]
    spans_out = directory / "spans.json" if traced else None
    out_path = directory / "stdout.txt"
    sample: dict = {"traced": traced, "attempted": 0, "failed": 0}
    with open(out_path, "wb") as out, \
            open(directory / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            repro_command(argv, spans_out), cwd=ROOT, env=child_env(),
            stdout=out, stderr=err,
        )
        problems: list[str] = []
        try:
            url = _wait_until(lambda: _server_url(out_path, proc), "URL")
            client = ServiceClient(url, timeout=60.0)
            _wait_until(lambda: _healthy(client), "/healthz")
            _prime(client, _prime_payload())
            sample["setup"] = time.perf_counter() - start
            if traced:
                base = Path(f"{spans_out}.base")
                proc.send_signal(signal.SIGUSR1)
                _wait_until(base.exists, "the span baseline")
            if mix is not None:
                primed = client.stats()["cache"]
                sample["records"] = _drive(client, mix, payloads)
                sample["jobs"] = client.jobs()
                cache = client.stats()["cache"]
                sample["cache"] = {
                    key: cache.get(key, 0) - primed.get(key, 0)
                    for key in ("hits", "misses")
                }
        except (RuntimeError, OSError, ServiceError, ValueError,
                KeyError) as error:
            problems.append(f"server: {type(error).__name__}: {error}")
        finally:
            exited, stop_problems = _stop_server(proc, start)
            problems += stop_problems
    sample.update(
        cpu=exited.cpu, rss_mb=exited.rss_mb, problems=problems,
        store_bytes=_store_bytes(directory / "state" / "cache"),
    )
    if mix is None:
        if problems:
            sample.update(attempted=1, failed=1)
        return sample
    if traced and "cache" in sample:
        try:
            sample["spans"] = _span_delta(spans_out)
        except (OSError, ValueError, KeyError) as error:
            problems.append(f"spans: {type(error).__name__}: {error}")
    if "cache" in sample:
        _score_mix(sample, mix)
    else:
        sample.update(
            attempted=len(mix), failed=len(mix), wall=0.0, latencies=[],
            **{name: [] for name in SERVICE_PHASES},
        )
    return sample


def _span_delta(spans_out: Path) -> dict:
    """The server's spans and counts since its SIGUSR1 baseline."""
    final = _load_json(spans_out)
    base = _load_json(Path(f"{spans_out}.base"))
    return {
        "spans": {
            name: [
                calls - base["spans"].get(name, [0, 0.0])[0],
                seconds - base["spans"].get(name, [0, 0.0])[1],
            ]
            for name, (calls, seconds) in final["spans"].items()
        },
        "counts": {
            name: value - base["counts"].get(name, 0)
            for name, value in final["counts"].items()
        },
    }


def _score_mix(sample: dict, mix: list[tuple]) -> None:
    """Correctness and metrics of one driven mix.  A submission fails on
    an HTTP error, a job not ending ``ok``, a rendering that breaks
    :func:`check_optimize`, or a deduplicated result that differs."""
    records = sample["records"]
    socs = {name: _soc(name) for name in MIX_SOCS}
    rendered_of: dict[str, str] = {}
    tsoc_of: dict[str, int] = {}
    problems = list(sample["problems"])
    failed = 0
    for entry, record in zip(mix, records):
        issues = []
        if "error" in record:
            issues.append(record["error"])
        else:
            outcome = record["outcome"]
            result = outcome.get("result") or {}
            if outcome["job"]["state"] != "ok" or result.get("status") != "ok":
                issues.append(f"job ended {outcome['job']['state']}")
            else:
                rendered = result.get("rendered") or ""
                fingerprint = record["fingerprint"]
                known = rendered_of.setdefault(fingerprint, rendered)
                if known != rendered:
                    issues.append("deduplicated result differs")
                t_soc, found = check_optimize(socs[entry[0]], entry[1],
                                              rendered)
                issues += found
                tsoc_of[fingerprint] = t_soc
        if issues:
            failed += 1
            problems += issues[:2]
    finished = [r for r in records if "error" not in r]
    executed = {
        job["id"]: job for job in sample["jobs"]
        if job["id"] in {r["job"] for r in finished}
    }
    cache = sample.pop("cache")
    lookups = cache["hits"] + cache["misses"]
    sample.update(
        attempted=len(records) + int(bool(sample["problems"])),
        failed=failed + int(bool(sample["problems"])),
        problems=problems,
        tsoc=sum(tsoc_of.values()),
        latencies=[r["seen"] - r["began"] for r in finished],
        wall=(
            max(r["seen"] for r in finished)
            - min(r["began"] for r in finished)
            if finished else 0.0
        ),
        submit_s=[r["submit_s"] for r in finished],
        queue_wait_s=[
            job["started"] - job["created"] for job in executed.values()
            if job.get("started") is not None
        ],
        run_s=[
            job["finished"] - job["started"] for job in executed.values()
            if job.get("finished") is not None
            and job.get("started") is not None
        ],
        deliver_s=[
            r["seen_epoch"] - executed[r["job"]]["finished"]
            for r in finished
            if executed.get(r["job"], {}).get("finished") is not None
        ],
        counts={
            "service.submissions": len(records),
            "service.jobs_executed": len(executed),
            "service.dedup_ratio": (
                sum(r["joined"] for r in finished) / len(finished)
                if finished else 0.0
            ),
            "service.cache_hit_ratio": (
                cache["hits"] / lookups if lookups else 0.0
            ),
            "cache.store_bytes": sample.pop("store_bytes"),
        },
    )
    del sample["records"], sample["jobs"]


def run_service(seed: int, seconds: float, trace: bool,
                work: Path) -> tuple[list[dict], list[dict]]:
    """Returns ``(setups, sessions)``: setup-only server starts and
    driven mix sessions, each on fresh state."""
    mix = service_mix(seed)
    payloads = _plan_payloads(mix)
    warm_up = service_session(fresh_dir(work, "warmup"), traced=False)
    began = time.perf_counter()
    setups = [
        service_session(fresh_dir(work, f"setup{index}"), traced=False)
        for index in range(2)
    ]
    # The warm-up's time is discarded, its failures are not.
    setups[0]["problems"] += warm_up["problems"]
    setups[0]["attempted"] += warm_up["attempted"]
    setups[0]["failed"] += warm_up["failed"]
    remaining = seconds - (time.perf_counter() - began)

    def rep(index: int) -> dict:
        directory = fresh_dir(work, f"session{index}")
        sample = service_session(
            directory, traced=bool(trace and index % 2), mix=mix,
            payloads=payloads,
        )
        shutil.rmtree(directory, ignore_errors=True)
        return sample

    sessions = measure(rep, remaining, minimum=2 if trace else 1)
    return setups, sessions
