"""Ablation benches for the design choices DESIGN.md calls out."""

from repro.experiments.ablations import render_ablation, run_ablation

DURATION = 900.0


def test_ablation_transition_duration(benchmark):
    """Longer ambers hurt; the 4 s paper value sits on a clear slope."""
    points = benchmark.pedantic(
        run_ablation,
        args=("transition-duration",),
        kwargs={"duration": DURATION},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation(points))
    by_amber = {p.params["transition_duration"]: p for p in points}
    assert (
        by_amber[2.0].average_queuing_time
        < by_amber[8.0].average_queuing_time
    )


def test_ablation_alpha_beta_order(benchmark):
    """Both orderings run; the paper's (beta < alpha) is the default."""
    points = benchmark.pedantic(
        run_ablation,
        args=("alpha-beta-order",),
        kwargs={"duration": DURATION},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation(points))
    assert len(points) == 2
    assert all(p.average_queuing_time > 0 for p in points)


def test_ablation_keep_margin(benchmark):
    """Relaxing g* trades ambers for staleness; margins must reduce
    the amber share monotonically."""
    points = benchmark.pedantic(
        run_ablation,
        args=("keep-margin",),
        kwargs={"duration": DURATION},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation(points))
    ambers = [p.amber_share for p in points]  # margins 0, 2, 5, 10
    assert ambers[-1] <= ambers[0]


def test_ablation_controller_family(benchmark):
    """UTIL-BP must beat original BP and fixed-time at equal demand."""
    points = benchmark.pedantic(
        run_ablation,
        args=("controller-family",),
        kwargs={"duration": DURATION},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation(points))
    by_label = {p.label: p.average_queuing_time for p in points}
    util = by_label["UTIL-BP (proposed)"]
    assert util < by_label["original BP @ 18s"]
    assert util < by_label["fixed-time @ 18s"]


def test_ablation_mini_slot(benchmark):
    """Coarser mini-slots degrade towards fixed slots; 1 s must not be
    worse than 5 s."""
    points = benchmark.pedantic(
        run_ablation,
        args=("mini-slot",),
        kwargs={"duration": DURATION, "mini_slots": (1.0, 5.0)},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation(points))
    fine, coarse = points[0], points[1]
    assert fine.average_queuing_time <= coarse.average_queuing_time * 1.10
