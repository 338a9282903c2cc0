"""The traced benchmark run's wrap targets still exist in the program.

``perfbench/tracing.py`` wraps each layer's entry points at the module
or class attribute where callers look them up.  Moving or renaming one
of those attributes breaks the traced run; this test makes that a
tier-1 failure.  It loads the tracing module from its file and edits
nothing under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

TRACING_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_target_and_uninstall_restores_it():
    tracing = _load_tracing()
    originals = tracing.attributes()
    patches = tracing.install(tracing.Tracer())
    try:
        assert len(patches) == len(tracing.LAYER_TARGETS)
        wrapped = tracing.attributes()
        for target, before, during in zip(
            tracing.LAYER_TARGETS, originals, wrapped
        ):
            assert during is not None and during is not before, target[:2]
    finally:
        tracing.uninstall(patches)
    restored = tracing.attributes()
    for target, before, after in zip(tracing.LAYER_TARGETS, originals, restored):
        assert after is before, target[:2]
