"""Tests of the benchmark's own machinery (not of the program).

    python3 -m pytest -q perfbench/selftest.py

Covers wrapper install/uninstall, self-time subtraction of child spans,
percentile and sample-count reporting, the job plan's exact counts,
that ``layers.json`` describes every per-layer metric of
``BENCHMARK.json``, and which zero metrics count as a layer that never
ran.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A nanosecond clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class Base:
    def work(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return (cls.__name__, x)

    @staticmethod
    def pure(x):
        return 2 * x


class Child(Base):
    pass


def test_install_and_uninstall_restore_every_kind_of_attribute():
    module = types.ModuleType("fake_module")
    module.helper = lambda x: x - 1
    targets = (
        (Child, "work", "a", None),
        (Base, "make", "b", None),
        (Base, "pure", "c", None),
        (module, "helper", "d", None),
    )
    before = {name: Base.__dict__[name] for name in ("work", "make", "pure")}
    helper = module.helper
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, targets)
    assert "work" in vars(Child)
    assert Child().work(1) == 2
    assert Child.make(3) == ("Child", 3)
    assert Base.pure(4) == 8
    assert module.helper(5) == 4
    assert {name for _, name in tracer.spans} == {"a", "b", "c", "d"}
    tracing.uninstall(patches)
    assert "work" not in vars(Child)
    assert all(Base.__dict__[name] is value for name, value in before.items())
    assert module.helper is helper
    assert patches == []


def test_failed_install_leaves_nothing_behind():
    before = Base.__dict__["work"]
    with pytest.raises(AttributeError):
        tracing.install(
            tracing.Tracer(), ((Base, "work", "a", None), (Base, "missing", "b", None))
        )
    assert Base.__dict__["work"] is before


def test_program_targets_are_restored_exactly():
    originals = tracing.attributes()
    patches = tracing.install(tracing.Tracer())
    assert any(a is not b for a, b in zip(originals, tracing.attributes()))
    tracing.uninstall(patches)
    assert all(a is b for a, b in zip(originals, tracing.attributes()))


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def inner():
        clock.now += 3

    def outer():
        clock.now += 5
        tracer.call("child", inner, (), {})
        clock.now += 2

    tracer.call("parent", outer, (), {})
    assert tracer.spans[("", "parent")] == [1, 7, 10]
    assert tracer.spans[("", "child")] == [1, 3, 3]


def test_reentering_the_same_layer_is_one_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def base_step():
        clock.now += 4

    def derived_step():
        clock.now += 1
        tracer.call("engines.step", base_step, (), {})

    tracer.call("engines.step", derived_step, (), {})
    assert tracer.spans[("", "engines.step")] == [1, 5, 5]


def test_hook_time_is_hidden_from_the_parent():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def hook(tracer, args, result):
        clock.now += 100
        tracer.add_value("size", result)

    def outer():
        tracer.call("child", lambda: 7, (), {}, hook)

    tracer.call("parent", outer, (), {})
    assert tracer.spans[("", "parent")][1] == 0
    assert tracer.value_totals("size") == (1, 7.0)


def test_tags_split_spans_and_dump_round_trips():
    tracer = tracing.Tracer(FakeClock())
    for tag in ("meso-counts@0.1", "meso-vec@0.1", "check"):
        tracer.tag = tag
        tracer.call("engines.step", lambda: None, (), {})
    assert tracer.span_totals("engines.step", lambda t: "@" in t)[0] == 2
    copy = tracing.Tracer()
    copy.load(json.loads(json.dumps(tracer.dump())))
    assert copy.spans == tracer.spans


def test_quartiles_and_sample_counts():
    assert run.describe([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5,
    }
    assert run.describe([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == pytest.approx(50.5)
    assert run.percentile(values, 90) == pytest.approx(90.1)


def test_layer_metadata_covers_every_per_layer_metric():
    assert run.wanted_metrics(traced=True) == list(run.layers())
    assert [w["name"] for w in run.spec()["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = set(run.wanted_metrics(traced=False)) | {"slots_per_s.*"}
    for name, meta in run.layers().items():
        assert set(meta["moves"]) <= end_to_end, name
        assert set(meta["on"]) <= set(workloads.WORKLOADS), name


def test_a_zero_counts_as_idle_only_where_the_layer_runs():
    closed_only = "engines.controller_arrays_us"
    assert run.layers()[closed_only]["on"] == ["closed-loop"]
    metrics = {name: 1.0 for name in run.layers()}
    metrics[closed_only] = 0.0
    assert run.idle_layers(metrics, "closed-loop") == [closed_only]
    assert run.idle_layers(metrics, "open-loop") == []
    del metrics["runner.self_ms"]
    assert "runner.self_ms" in run.idle_layers(metrics, "open-loop")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_plan_counts_are_exact_and_seed_independent(name):
    workload = workloads.WORKLOADS[name]
    plans = [workloads.plan_jobs(workload, seed) for seed in (1, 2)]
    shape = [
        [(job.thread, job.expected) for job in plan.jobs] for plan in plans
    ]
    assert shape[0] == shape[1]
    plan = plans[0]
    assert len(plan.jobs) == workloads.JOBS
    seen_by_thread = {t: set() for t in range(workloads.CLIENT_THREADS)}
    seen = set()
    for job in plan.jobs:
        assert 1 <= len(job.specs) == len(set(job.specs)) <= 4
        earlier = seen_by_thread[job.thread]
        # A repeat always names a cell an earlier job of its own thread
        # submitted, and no other thread's cell: the share is certain.
        assert sum(spec in earlier for spec in job.specs) == job.expected["shared"]
        assert not (set(job.specs) - earlier) & seen
        earlier.update(job.specs)
        seen.update(job.specs)
    assert plan.executed + plan.from_store == len(seen)
    assert plan.shared == sum(job.expected["shared"] for job in plan.jobs)
    assert len(set(plan.prestored)) == plan.from_store
    assert plan.batch_units == workloads.JOBS // workloads.GROUP_EVERY
