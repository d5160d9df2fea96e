"""Unit tests for Table 1 LOC counting, markdown table rendering, and the
rule that no module is imported only by its own tests."""
import ast
from pathlib import Path

from repro.nexmark.loc import PAPER_TABLE1, count_loc, loc_table
from repro.tables import fmt, markdown_table

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
