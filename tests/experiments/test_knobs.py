"""The knob schema and its one plan builder."""

from __future__ import annotations

import pytest

from repro.experiments.knobs import SCHEMA, SUBMITTABLE_KINDS, build_plan
from repro.experiments.plan import registered_plans
from repro.experiments.single import evaluate_plan
from repro.experiments.stability import stability_plan
from repro.experiments.table_runner import table_plan
from repro.resilience.validation import ValidationError


def test_schema_covers_every_registered_kind():
    assert set(SUBMITTABLE_KINDS) == set(registered_plans())


def test_every_required_knob_has_no_default():
    for kind, schema in SCHEMA.items():
        for knob in schema.knobs:
            assert knob.required == (knob.default is None), (kind, knob)


def test_unset_knobs_take_the_kind_defaults(t5):
    assert build_plan("table", t5).fingerprint() == table_plan(
        t5, 10_000
    ).fingerprint()
    assert build_plan("stability", t5, wmax=None).fingerprint() == (
        stability_plan(t5, 2_000, 24, seeds=(1, 2, 3)).fingerprint()
    )


def test_evaluate_takes_a_path_like_arch(t5, tmp_path):
    from repro.core.optimizer import optimize_tam
    from repro.tam.serialize import save_architecture

    path = tmp_path / "arch.json"
    architecture = optimize_tam(t5, 16).architecture
    save_architecture(architecture, path)
    expected = evaluate_plan(
        t5, architecture, pattern_count=0, parts=4, seed=1,
        optimizer_backend="auto",
    ).fingerprint()
    assert build_plan("evaluate", t5, arch=path).fingerprint() == expected
    assert build_plan("evaluate", t5, arch=str(path)).fingerprint() == (
        expected
    )


@pytest.mark.parametrize(
    "kind, options, field",
    [
        ("table", {"sa_steps": 5}, "sa_steps"),
        ("pareto", {"optimizer_backend": "reference"}, "optimizer_backend"),
        ("compare", {}, "wmax"),
        ("evaluate", {}, "arch"),
        ("bogus", {}, "kind"),
    ],
)
def test_bad_knobs_are_validation_errors(t5, kind, options, field):
    with pytest.raises(ValidationError) as error:
        build_plan(kind, t5, **options)
    assert error.value.field == field


def test_a_soc_kind_without_a_soc_is_rejected():
    with pytest.raises(ValidationError) as error:
        build_plan("table")
    assert error.value.field == "soc"
