"""Unit tests for Table 1 LOC counting, markdown table rendering, the table
registry and ``jobs/run_all.py``, and the rule that no module is imported
only by its own tests."""
import ast
import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.nexmark.loc import PAPER_TABLE1, count_loc, loc_table
from repro.tables import TABLES, Table, fmt, markdown_table

ROOT = Path(__file__).resolve().parents[1]
# modules whose only callers are the tests, by design: the DuckDB reference
# checker the tests compare against
TEST_ONLY = {"repro.oracle"}


class TestCountLoc:
    def test_excludes_docstrings_comments_blanks(self):
        def sample():
            """A docstring
            spanning lines."""
            x = 1  # trailing comment counts as code
            # pure comment
            return x

        assert count_loc(sample) == 3  # def, x = 1, return

    def test_class_docstrings_excluded(self):
        class C:
            """Doc."""

            def m(self):
                """Doc."""
                return 1

        assert count_loc(C) == 3  # class, def, return


class TestLocTable:
    def test_all_queries_present(self):
        rows = loc_table()
        assert [r["query"] for r in rows] == [f"Q{i}" for i in range(1, 9)]

    def test_paper_numbers_recorded(self):
        rows = loc_table()
        for r in rows:
            q = r["query"].lower()
            assert r["paper_native"] == PAPER_TABLE1[q]["native"]

    def test_stateful_queries_megaphone_smaller(self):
        # the paper's Table 1 claim for the stateful queries
        for r in loc_table():
            if r["query"] in ("Q3", "Q4", "Q5", "Q6", "Q8"):
                assert r["megaphone_loc"] < r["native_loc"], r

    def test_matches_committed_table(self):
        """The queries' measured LOC are the committed Table 1."""
        table = TABLES["table1"]
        committed = (ROOT / "results" / "tables.md").read_text()
        section = committed.split(f"## {table.title}\n\n", 1)[1].split("\n## ", 1)[0]
        assert markdown_table(loc_table(), table.columns) == section.strip()


class TestMarkdown:
    def test_fmt(self):
        assert fmt(None) == "-"
        assert fmt(0.0) == "0"
        assert fmt(12345.6) == "12,346"
        assert fmt(12.34) == "12.3"
        assert fmt(1.234) == "1.23"
        assert fmt("x") == "x"

    def test_table_render(self):
        md = markdown_table([{"a": 1, "b": 2.5}, {"a": 3, "b": None}])
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[2] == "| 1 | 2.50 |"
        assert lines[3] == "| 3 | - |"

    def test_empty(self):
        assert markdown_table([]) == "(no rows)"


def _imported(dirs: list[str]) -> set[str]:
    """Every module name an import statement under ``dirs`` may load."""
    names = set()
    for d in dirs:
        for f in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(f.read_text(), str(f))):
                if isinstance(node, ast.Import):
                    names.update(a.name for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names.add(node.module)
                    # ``from pkg import module``
                    names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


class TestNoTestOnlyModules:
    def test_every_module_imported_outside_tests(self):
        src = ROOT / "src"
        modules = {
            ".".join(f.relative_to(src).with_suffix("").parts)
            for f in (src / "repro").rglob("*.py")
            if f.name != "__init__.py"
        }
        unused = modules - _imported(["src", "jobs", "perfbench"]) - TEST_ONLY
        assert not unused, f"imported only by tests (or nothing): {sorted(unused)}"


def _one_row() -> list[dict]:
    return [{"a": 1}]


def _raise_boom() -> list[dict]:
    raise RuntimeError("boom")


def _load_run_all():
    spec = importlib.util.spec_from_file_location("run_all", ROOT / "jobs" / "run_all.py")
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    return run_all


class TestRunAll:
    def test_failed_job_fails_the_run_after_writing_tables(self, tmp_path, monkeypatch):
        run_all = _load_run_all()
        monkeypatch.setattr(
            run_all,
            "TABLES",
            {
                "bad": Table("bad", ["a"], lambda quick: [(_raise_boom, {})]),
                "ok": Table("ok", ["a"], lambda quick: [(_one_row, {})]),
            },
        )
        out = tmp_path / "tables.md"
        monkeypatch.setattr(
            sys, "argv", ["run_all.py", "--only", "bad", "ok", "--out", str(out)]
        )
        with pytest.raises(SystemExit) as exc:
            run_all.main()
        assert exc.value.code == "failed tables: bad"
        tables = out.read_text()
        assert "## bad\n\nFAILED:" in tables and "RuntimeError: boom" in tables
        assert "## ok\n\n| a |" in tables

    def test_unknown_table_rejected(self, monkeypatch):
        run_all = _load_run_all()
        monkeypatch.setattr(sys, "argv", ["run_all.py", "--only", "fig99"])
        with pytest.raises(SystemExit) as exc:
            run_all.main()
        assert exc.value.code == 2


class TestJobsStandalone:
    def test_job_runs_without_pythonpath(self, tmp_path):
        """``run_all.py`` finds the ``repro`` package in ``src/`` by itself,
        and without ``--out`` writes no file."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, str(ROOT / "jobs" / "run_all.py"), "--only", "table1"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "Table 1: NEXMark query implementations, lines of code" in out.stdout
        assert "repro.nexmark.loc.loc_table {}" in out.stderr
        assert not any(tmp_path.iterdir())


class TestRegistry:
    def test_points_pickle_as_module_level_repro_functions(self):
        """Every point can be shipped to another process as it is."""
        for key, table in TABLES.items():
            for quick in (False, True):
                points = table.points(quick)
                assert points, key
                for fn, kwargs in points:
                    module = importlib.import_module(fn.__module__)
                    assert fn.__module__.startswith("repro."), (key, fn)
                    assert getattr(module, fn.__qualname__) is fn, (key, fn)
                    assert pickle.loads(pickle.dumps((fn, kwargs))) == (fn, kwargs)
