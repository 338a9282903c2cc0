"""The versioned public API façade (repro.api)."""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import repro.api as api


class TestFacadeSurface:
    def test_api_version_shape(self):
        assert re.fullmatch(r"\d+\.\d+", api.API_VERSION)

    def test_every_public_name_importable(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, (
                f"repro.api.__all__ lists {name!r} but the attribute is "
                f"missing or None"
            )

    def test_all_is_sorted_unique(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_nothing_private_leaks(self):
        for name in api.__all__:
            assert not name.startswith("_"), f"private name {name!r} in __all__"

    def test_star_import_exposes_exactly_all(self):
        namespace: dict = {}
        exec("from repro.api import *", namespace)  # noqa: S102
        imported = {k for k in namespace if not k.startswith("_")}
        assert imported == set(api.__all__)

    def test_core_surface_present(self):
        # The names downstream code is expected to build on.
        for name in (
            "RunSpec",
            "SweepGrid",
            "RunConfig",
            "RunResult",
            "run_scenario",
            "run_scenario_batch",
            "ResultStore",
            "ExperimentPool",
            "PoolStats",
            "aggregate",
            "serve",
            "ServiceClient",
            "get_logger",
            "ReproError",
            "UsageError",
        ):
            assert name in api.__all__

    def test_facade_names_are_canonical_objects(self):
        from repro.experiments.runner import RunConfig as runner_RunConfig
        from repro.orchestration.spec import RunSpec as spec_RunSpec
        from repro.results.store import ResultStore as store_ResultStore

        assert api.RunConfig is runner_RunConfig
        assert api.RunSpec is spec_RunSpec
        assert api.ResultStore is store_ResultStore

    def test_service_wrappers_are_lazy(self):
        import sys

        # Importing repro.api alone must not pull in the service stack
        # (it would create an import cycle and slow every CLI start).
        for module in list(sys.modules):
            if module.startswith("repro.service"):
                del sys.modules[module]
        import importlib

        importlib.reload(api)
        assert not any(
            module.startswith("repro.service") for module in sys.modules
        )
        # ... but the wrappers resolve the real implementations on use.
        client = api.ServiceClient("http://127.0.0.1:1")
        from repro.service.client import ServiceClient as real_client

        assert isinstance(client, real_client)

    def test_import_repro_loads_no_submodule_and_no_numpy(self):
        """``import repro`` in a fresh interpreter is the docstring only."""
        import os
        import subprocess

        code = (
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('repro.', 'numpy'))))\n"
        )
        src = str(Path(api.__file__).resolve().parents[1])
        loaded = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout.strip()
        assert loaded == "[]"

    def test_create_app_builds_service_app(self, tmp_path):
        app = api.create_app(str(tmp_path / "store.sqlite"))
        from repro.service.app import ServiceApp

        assert isinstance(app, ServiceApp)
        app.close()

    def test_run_via_facade(self):
        scenario = api.build_scenario("I", seed=1)
        config = api.RunConfig(controller="util-bp", duration=30.0)
        result = api.run_scenario(scenario, config=config)
        assert result.summary.vehicles_entered >= 0

    def test_embedded_version_matches_service_envelope(self, tmp_path):
        from repro.service.app import ServiceApp

        app = ServiceApp(str(tmp_path / "store.sqlite"))
        payload = app._envelope({}, "req-x")
        assert payload["api_version"] == api.API_VERSION
        app.close()


#: The deprecated shims and the module each one forwards to.
SHIMS = {
    "repro.experiments.scenario": "repro.scenarios.core",
    "repro.experiments.patterns": "repro.scenarios.patterns",
}

REPO = Path(__file__).resolve().parent.parent


def _imported_modules(tree: ast.AST):
    """Every module name an ``import`` statement of ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


class TestDeprecatedShims:
    @pytest.mark.parametrize("shim", sorted(SHIMS))
    def test_warning_names_removal_release_and_date(self, shim):
        sys.modules.pop(shim, None)
        with pytest.warns(DeprecationWarning) as caught:
            importlib.import_module(shim)
        text = str(caught[0].message)
        assert "repro 1.2" in text
        assert "2026-12-01" in text
        assert SHIMS[shim] in text

    def test_nothing_imports_a_shim(self):
        """Only the shims themselves may name a shim in an import."""
        shim_files = {
            REPO / "src" / Path(*name.split(".")).with_suffix(".py")
            for name in SHIMS
        }
        offenders = []
        for folder in ("src", "benchmarks", "scripts", "examples"):
            for path in sorted((REPO / folder).rglob("*.py")):
                if path in shim_files:
                    continue
                tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
                offenders += [
                    f"{path.relative_to(REPO)}: {name}"
                    for name in _imported_modules(tree)
                    if name in SHIMS
                ]
        assert not offenders, offenders
