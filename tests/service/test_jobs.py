"""Job registry: dedup semantics, the durable journal, restore."""

from __future__ import annotations

import json

import pytest

from repro.service.jobs import JOURNAL_FORMAT, JobManager, JobStore
from repro.service.queue import JobQueue
from repro.service.wire import parse_submission
from repro.experiments.plan import plan_to_dict


@pytest.fixture
def manager(tmp_path):
    return JobManager(JobStore(tmp_path / "jobs"), JobQueue())


def _submission(plan, **extra):
    return parse_submission({"plan": plan_to_dict(plan), **extra})


def test_submit_registers_enqueues_and_journals(manager, quick_plan):
    job, created = manager.submit(_submission(quick_plan, tag="first"))
    assert created is True
    assert job.state == "queued"
    assert job.tag == "first"
    assert manager.queue.pop(0) == job.job_id
    record = json.loads(manager.store.path(job.job_id).read_text())
    assert record["format"] == JOURNAL_FORMAT
    assert record["job"]["fingerprint"] == quick_plan.fingerprint()
    assert record["job"]["payload"] == plan_to_dict(quick_plan)


def test_same_fingerprint_joins_existing_job(manager, quick_plan):
    first, created_first = manager.submit(_submission(quick_plan))
    second, created_second = manager.submit(_submission(quick_plan))
    assert created_first and not created_second
    assert second is first
    assert first.submissions == 2
    assert [e["event"] for e in first.events] == ["queued", "joined"]
    assert len(manager.queue) == 1  # joined, not re-enqueued


def test_fresh_bypasses_dedup(manager, quick_plan):
    first, _ = manager.submit(_submission(quick_plan))
    second, created = manager.submit(_submission(quick_plan, fresh=True))
    assert created is True
    assert second.job_id != first.job_id


def test_ok_job_captures_new_submissions_failed_does_not(
    manager, quick_plan
):
    job, _ = manager.submit(_submission(quick_plan))
    manager.mark_running(job)
    manager.finish(job, "ok", result={"status": "ok"})
    joined, created = manager.submit(_submission(quick_plan))
    assert not created and joined is job

    manager.finish(job, "failed", error={"type": "X", "message": "boom"})
    retried, created = manager.submit(_submission(quick_plan))
    assert created is True
    assert retried.job_id != job.job_id


def test_finish_rejects_non_terminal_state(manager, quick_plan):
    job, _ = manager.submit(_submission(quick_plan))
    with pytest.raises(ValueError):
        manager.finish(job, "queued")


def test_mark_running_assigns_monotonic_run_seq(manager, quick_plan, t5):
    from repro.experiments.pareto import pareto_plan

    first, _ = manager.submit(_submission(quick_plan))
    second, _ = manager.submit(_submission(pareto_plan(t5, (8,))))
    manager.mark_running(first)
    manager.mark_running(second)
    assert (first.run_seq, second.run_seq) == (1, 2)


def test_job_carries_the_parsed_plan_until_it_finishes(manager, quick_plan):
    submission = _submission(quick_plan)
    job, _ = manager.submit(submission)
    assert job.plan is submission.plan
    manager.mark_running(job)
    manager.finish(job, "ok", result={"status": "ok"})
    assert job.plan is None
    restored = manager.store.load_all()
    assert [entry.plan for entry in restored] == [None]


def test_finish_journals_the_running_event(manager, quick_plan):
    job, _ = manager.submit(_submission(quick_plan))
    path = manager.store.path(job.job_id)
    queued = path.read_bytes()
    manager.mark_running(job)
    assert path.read_bytes() == queued
    manager.finish(job, "ok", result={"status": "ok"})
    journal = json.loads(path.read_text())["job"]
    assert journal["state"] == "ok"
    assert [e["event"] for e in journal["events"]] == [
        "queued", "running", "finished"
    ]
    assert journal["run_seq"] == 1


def test_view_excludes_payload_and_result(manager, quick_plan):
    job, _ = manager.submit(_submission(quick_plan))
    view = job.view()
    assert "payload" not in view and "result" not in view
    assert view["id"] == job.job_id
    assert view["state"] == "queued"


def test_restore_requeues_unfinished_and_keeps_terminal(
    tmp_path, quick_plan, t5
):
    from repro.experiments.pareto import pareto_plan

    store = JobStore(tmp_path / "jobs")
    manager = JobManager(store, JobQueue())
    done, _ = manager.submit(_submission(quick_plan))
    manager.mark_running(done)
    manager.finish(done, "ok", result={"status": "ok"})
    stuck, _ = manager.submit(_submission(pareto_plan(t5, (8,))))
    manager.mark_running(stuck)  # killed mid-run
    journal = json.loads(store.path(stuck.job_id).read_text())["job"]
    assert journal["state"] == "queued"  # running is never written
    assert [e["event"] for e in journal["events"]] == ["queued"]

    fresh = JobManager(store, JobQueue())
    requeued = fresh.restore(store.load_all())
    assert requeued == 1
    restored = fresh.get(stuck.job_id)
    assert restored.state == "queued"
    assert restored.started is None and restored.run_seq is None
    assert restored.events[-1]["event"] == "requeued"
    assert fresh.queue.pop(0) == stuck.job_id
    assert fresh.get(done.job_id).state == "ok"
    assert fresh.get(done.job_id).result == {"status": "ok"}


def test_load_all_skips_corrupt_and_foreign_files(tmp_path, quick_plan):
    store = JobStore(tmp_path / "jobs")
    manager = JobManager(store, JobQueue())
    job, _ = manager.submit(_submission(quick_plan))
    (store.directory / "junk.json").write_text("{ not json")
    (store.directory / "foreign.json").write_text(
        json.dumps({"format": "something-else", "job": {}})
    )
    loaded = store.load_all()
    assert [entry.job_id for entry in loaded] == [job.job_id]


def test_queue_full_submission_leaves_no_residue(tmp_path, quick_plan, t5):
    from repro.experiments.pareto import pareto_plan
    from repro.service.queue import QueueFullError

    store = JobStore(tmp_path / "jobs")
    manager = JobManager(store, JobQueue(limit=1))
    manager.submit(_submission(quick_plan))
    with pytest.raises(QueueFullError):
        manager.submit(_submission(pareto_plan(t5, (8,))))
    assert len(manager.jobs()) == 1
    assert len(list(store.directory.glob("*.json"))) == 1
