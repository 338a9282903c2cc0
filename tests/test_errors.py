"""One user-error type: ``ReproError``, and the CLI's one handler of it."""

from __future__ import annotations

import sqlite3

import pytest

from repro.analysis import AnalysisOptions
from repro.cli import main
from repro.errors import ReproError, UsageError
from repro.orchestration.pool import WorkerDiedError
from repro.results.aggregate import MixedDelayModeError, aggregate, check_axes
from repro.results.store import STORE_LAYOUT_VERSION, MergeError, ResultStore
from repro.service.client import ServiceError
from repro.service.http import HttpError


class TestHierarchy:
    @pytest.mark.parametrize(
        "error, builtin",
        [
            (UsageError, ValueError),
            (MergeError, ValueError),
            (MixedDelayModeError, ValueError),
            (ServiceError, RuntimeError),
            (HttpError, Exception),
            (WorkerDiedError, Exception),
        ],
    )
    def test_every_user_error_is_a_repro_error(self, error, builtin):
        assert issubclass(error, ReproError)
        assert issubclass(error, builtin)

    def test_store_errors_are_usage_errors(self):
        assert issubclass(MergeError, UsageError)
        assert issubclass(MixedDelayModeError, UsageError)

    def test_http_error_keeps_its_status(self):
        error = HttpError(409, "ambiguous")
        assert error.status == 409 and str(error) == "ambiguous"

    def test_unreachable_service_error_has_no_status(self):
        error = ServiceError(None, "cannot reach http://host:9/jobs: refused")
        assert error.status is None
        assert str(error) == "cannot reach http://host:9/jobs: refused"
        assert str(ServiceError(404, "unknown job")) == "HTTP 404: unknown job"

    def test_exported_from_the_api(self):
        import repro.api as api

        assert api.ReproError is ReproError
        assert api.UsageError is UsageError


@pytest.fixture
def not_a_store(tmp_path):
    path = tmp_path / "notes.sqlite"
    path.write_text("this is not a SQLite store\n", encoding="utf-8")
    return path


class TestStoreOpen:
    @pytest.mark.parametrize("read_only", [False, True])
    def test_not_a_store_is_a_usage_error(self, not_a_store, read_only):
        with pytest.raises(UsageError, match="cannot open .* as a result store"):
            ResultStore(not_a_store, read_only=read_only)

    def test_missing_file_read_only_is_not_created(self, tmp_path):
        path = tmp_path / "missing.sqlite"
        with pytest.raises(UsageError, match="no store at"):
            ResultStore.reader(path)
        assert not path.exists()

    def test_unwritable_location_is_a_usage_error(self, not_a_store):
        with pytest.raises(UsageError, match="cannot open"):
            ResultStore(not_a_store / "inside-a-file.sqlite")

    def test_newer_layout_is_a_usage_error(self, tmp_path):
        path = tmp_path / "future.sqlite"
        with ResultStore(path):
            pass
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE store_meta SET value = ? WHERE key = 'layout_version'",
                (str(STORE_LAYOUT_VERSION + 1),),
            )
        for read_only in (False, True):
            with pytest.raises(UsageError, match="newer"):
                ResultStore(path, read_only=read_only)

    def test_no_layout_version_read_only_is_a_usage_error(self, tmp_path):
        path = tmp_path / "bare.sqlite"
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TABLE store_meta (key TEXT, value TEXT)")
        with pytest.raises(UsageError, match="no layout version"):
            ResultStore.reader(path)


class TestAggregateAndOptions:
    def test_unknown_metric_is_a_usage_error_naming_it(self):
        with pytest.raises(UsageError, match="bogus"):
            aggregate([], metrics=("average_queuing_time", "bogus"))

    def test_unknown_axis_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unknown aggregation axes"):
            aggregate([], by=("pattern", "bogus"))
        assert check_axes(["pattern", "seed"]) == ("pattern", "seed")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("warmup_fraction", 1.0),
            ("min_points", 1),
            ("min_shift_per_series", -0.1),
            ("n_permutations", 0),
            ("quantile", 1.5),
            ("quantile", 0.0),
            ("confidence", 1.0),
        ],
    )
    def test_out_of_range_option_is_a_usage_error(self, field, value):
        with pytest.raises(UsageError, match=field):
            AnalysisOptions(**{field: value})


#: An address nothing listens on (port 9, discard, refused locally).
UNREACHABLE = "http://127.0.0.1:9"


class TestCliReportsOneLine:
    """Every command turns a ReproError into one stderr line and exit 2."""

    @staticmethod
    def _fails_in_one_line(capsys, argv, prefix):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(f"repro {prefix}: "), lines[0]
        return lines[0]

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["results", "list"], "results list"),
            (["results", "show", "abc"], "results show"),
            (["results", "export"], "results export"),
            (["analyze", "changepoints"], "analyze changepoints"),
            (["sweep", "--patterns", "II", "--duration", "5"], "sweep"),
            (["serve", "--port", "0"], "serve"),
        ],
    )
    def test_not_a_store(self, capsys, not_a_store, argv, prefix):
        line = self._fails_in_one_line(
            capsys, [*argv, "--store", str(not_a_store)], prefix
        )
        assert "cannot open" in line and str(not_a_store) in line

    def test_serve_on_a_memory_store(self, capsys):
        line = self._fails_in_one_line(
            capsys, ["serve", "--port", "0", "--store", ":memory:"], "serve"
        )
        assert "journal mode 'memory'" in line and "requires WAL" in line

    def test_missing_store_is_not_created(self, capsys, tmp_path):
        path = tmp_path / "missing.sqlite"
        line = self._fails_in_one_line(
            capsys, ["results", "list", "--store", str(path)], "results list"
        )
        assert "no store" in line
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["submit", "--scenario", "steady-4x4"], "submit"),
            (["jobs"], "jobs"),
            (["jobs", "job-000001"], "jobs"),
            (["jobs", "job-000001", "--events"], "jobs"),
        ],
    )
    def test_unreachable_service(self, capsys, argv, prefix):
        line = self._fails_in_one_line(
            capsys, [*argv, "--url", UNREACHABLE], prefix
        )
        assert f"cannot reach {UNREACHABLE}/jobs" in line

    def test_submit_json_file_missing(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        line = self._fails_in_one_line(
            capsys, ["submit", "--json", str(path), "--url", UNREACHABLE],
            "submit",
        )
        assert f"cannot read {path}" in line

    def test_submit_json_file_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{bad", encoding="utf-8")
        line = self._fails_in_one_line(
            capsys, ["submit", "--json", str(path), "--url", UNREACHABLE],
            "submit",
        )
        assert f"{path} is not a JSON document" in line

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["results", "export"], "results export"),
            (["analyze", "changepoints", "--format", "csv"],
             "analyze changepoints"),
        ],
    )
    def test_output_into_a_missing_directory(
        self, capsys, tmp_path, argv, prefix
    ):
        store = tmp_path / "empty.sqlite"
        with ResultStore(store):
            pass
        output = tmp_path / "no-such-dir" / "rows.csv"
        line = self._fails_in_one_line(
            capsys, [*argv, "--store", str(store), "--output", str(output)],
            prefix,
        )
        assert f"cannot write {output}" in line
        assert not output.parent.exists()

    def test_sweep_aggregate_axes_checked_before_any_cell(
        self, capsys, monkeypatch
    ):
        from repro.orchestration import ExperimentPool

        def must_not_run(self, specs):
            raise AssertionError("a cell ran before --aggregate was checked")

        monkeypatch.setattr(ExperimentPool, "run", must_not_run)
        line = self._fails_in_one_line(
            capsys,
            ["sweep", "--patterns", "II", "--duration", "10",
             "--aggregate", "pattern,bogus"],
            "sweep",
        )
        assert "unknown aggregation axes ['bogus']" in line

    def test_show_unknown_and_ambiguous_prefix(self, capsys, tmp_path):
        store = str(tmp_path / "two.sqlite")
        assert main(
            ["sweep", "--patterns", "I", "--seeds", "1", "2",
             "--duration", "5", "--store", store]
        ) == 0
        capsys.readouterr()
        line = self._fails_in_one_line(
            capsys, ["results", "show", "zz", "--store", store], "results show"
        )
        assert "no cell with hash prefix 'zz'" in line
        line = self._fails_in_one_line(
            capsys, ["results", "show", "", "--store", store], "results show"
        )
        assert "is ambiguous (2 cells" in line
