"""Every engine's results stay bit-identical to the recorded digests.

``tests/golden/digests.json`` holds one digest per case and result
class; ``scripts/record_golden.py`` defines the cases and writes the
file (see its docstring for what is covered and what is not).  Because
meso-counts, meso-events and meso-vec share one ``count`` digest, the
test also asserts that the three agree.  A declared result change
re-records the file in the same change.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDER = ROOT / "scripts" / "record_golden.py"


def _load_recorder():
    spec = importlib.util.spec_from_file_location("record_golden", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _differences(found, recorded):
    """One line per case, class or engine where ``found`` and ``recorded`` differ."""
    problems = [f"{key}: not recorded" for key in found if key not in recorded]
    problems += [f"{key}: no longer a case" for key in recorded if key not in found]
    for key in found.keys() & recorded.keys():
        if set(found[key]) != set(recorded[key]):
            problems.append(
                f"{key}: classes {sorted(found[key])} != recorded {sorted(recorded[key])}"
            )
            continue
        for cls, engines in found[key].items():
            for engine, digest in engines.items():
                if digest != recorded[key][cls]:
                    problems.append(
                        f"{key}: {engine} gave {digest}, recorded {cls} "
                        f"{recorded[key][cls]}"
                    )
    return sorted(problems)


def test_results_match_the_recorded_digests():
    recorder = _load_recorder()
    recorded = json.loads(recorder.GOLDEN.read_text())
    assert _differences(recorder.observed(), recorded) == []
