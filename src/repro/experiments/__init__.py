"""Experiment harness reproducing the paper's tables.

Every experiment is a declarative
:class:`~repro.experiments.plan.ExperimentPlan` executed by
:class:`~repro.experiments.runner.PlanRunner`; each experiment module's
``run_*`` function is a thin wrapper that builds the plan and runs it
with the uniform ``jobs/cache`` knobs; every run re-verifies
its schedules.
"""
