"""Record the golden result digests that ``tests/test_golden_digests.py`` checks.

A digest is perfbench's ``fingerprint()`` (``perfbench/run.py``, loaded
by path) of ``RunResult.to_dict()``, so a result digest has one
definition.  ``tests/golden/digests.json`` maps each case to one digest
per result class:

* ``meso`` — the store-and-forward engine (dedicated lanes,
  per-vehicle delay);
* ``count`` — meso-counts, meso-events and meso-vec at B=1, which must
  agree bit for bit, so the file holds one digest for the three;
* ``micro`` — the Krauss car-following engine.

The cases:

* the matrix: every paper pattern (I-IV, mixed) under util-bp, cap-bp
  14, original-bp 14 and fixed-time 20, at 300 s on ``meso`` and the
  count engines, and at 120 s on ``micro``;
* each member of one B=16 meso-vec batch (pattern II, util-bp, 300 s,
  seeds 1-16), against meso-counts run alone on the same seed;
* two congested cases that take meso-vec's staged serve:
  ``surge-4x4`` at capacity 10 and ``gridlock-3x3`` at capacity 8;
* mini-slots 0.5 and 0.7 (pattern II, util-bp, 300 s).

Not covered: non-default ``PlantConstants``.  A ``RunSpec`` cannot carry
the plant yet, so every scenario-built engine runs on the defaults.

A declared result change re-records the file in the same change, and
names every key that moved and why.

Usage::

    PYTHONPATH=src python3 scripts/record_golden.py

rewrites the file; ``pytest tests/test_golden_digests.py`` lists every
key that moved.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
GOLDEN = ROOT / "tests" / "golden" / "digests.json"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.orchestration.spec import BatchRunSpec, RunSpec  # noqa: E402

#: Result class -> the engines that must produce its digest.
CLASSES: Dict[str, Tuple[str, ...]] = {
    "meso": ("meso",),
    "count": ("meso-counts", "meso-events", "meso-vec"),
    "micro": ("micro",),
}

PATTERNS = ("I", "II", "III", "IV", "mixed")
CONTROLLERS: Tuple[Tuple[str, Dict[str, float]], ...] = (
    ("util-bp", {}),
    ("cap-bp", {"period": 14}),
    ("original-bp", {"period": 14}),
    ("fixed-time", {"period": 20}),
)
DURATION = 300.0
MICRO_DURATION = 120.0
BATCH_SEEDS = tuple(range(1, 17))
CONGESTED = (("surge-4x4", {"capacity": 10}), ("gridlock-3x3", {"capacity": 8}))
MINI_SLOTS = (0.5, 0.7)


def _key(spec: RunSpec, *extra: str) -> str:
    """A case key: the spec's workload, controller and horizon."""
    parts = [spec.pattern]
    parts += [f"{k}={v}" for k, v in spec.scenario_params]
    params = "".join(f":{k}={v}" for k, v in spec.controller_params)
    parts += [spec.controller + params, f"{spec.duration:g}s"]
    if spec.mini_slot != 1.0:
        parts.append(f"mini_slot={spec.mini_slot:g}")
    return " ".join(parts + list(extra))


def _cases() -> Iterator[Tuple[str, RunSpec, Tuple[str, ...]]]:
    """``(key, spec, classes)`` of every single-run case."""
    for pattern in PATTERNS:
        for controller, params in CONTROLLERS:
            for duration, classes in (
                (DURATION, ("meso", "count")),
                (MICRO_DURATION, ("micro",)),
            ):
                spec = RunSpec(
                    pattern=pattern,
                    controller=controller,
                    controller_params=params,
                    duration=duration,
                )
                yield _key(spec), spec, classes
    for name, scenario_params in CONGESTED:
        spec = RunSpec(pattern=name, scenario_params=scenario_params, duration=DURATION)
        yield _key(spec), spec, ("meso", "count")
    for mini_slot in MINI_SLOTS:
        spec = RunSpec(pattern="II", duration=DURATION, mini_slot=mini_slot)
        yield _key(spec), spec, ("meso", "count")


def _fingerprint():
    """perfbench's ``fingerprint``, from its file (nothing under it is edited)."""
    added = [name for name in ("workloads", "tracing") if name not in sys.modules]
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in added:
            sys.modules.pop(name, None)
    return module.fingerprint


def observed() -> Dict[str, Dict[str, Dict[str, str]]]:
    """case key -> result class -> engine -> digest, for every case."""
    fingerprint = _fingerprint()
    found: Dict[str, Dict[str, Dict[str, str]]] = {}
    for key, spec, classes in _cases():
        found[key] = {
            cls: {
                engine: fingerprint(
                    dataclasses.replace(spec, engine=engine).execute().to_dict()
                )
                for engine in CLASSES[cls]
            }
            for cls in classes
        }
    template = RunSpec(pattern="II", engine="meso-vec", duration=DURATION)
    members = BatchRunSpec(template=template, seeds=BATCH_SEEDS).execute()
    for seed, result in zip(BATCH_SEEDS, members):
        alone = dataclasses.replace(template, engine="meso-counts", seed=seed)
        found[_key(template, f"seed={seed}", "batch=16")] = {
            "count": {
                "meso-vec": fingerprint(result.to_dict()),
                "meso-counts": fingerprint(alone.execute().to_dict()),
            }
        }
    return found


def main() -> int:
    found = observed()
    recorded = {}
    for key, classes in sorted(found.items()):
        recorded[key] = {}
        for cls, engines in sorted(classes.items()):
            digests = set(engines.values())
            if len(digests) != 1:
                print(f"{key}: the {cls} engines disagree: {engines}", file=sys.stderr)
                return 1
            recorded[key][cls] = digests.pop()
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
