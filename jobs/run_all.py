"""Regenerate the reproduced tables in ``repro.tables.TABLES``.

    python jobs/run_all.py --out results/tables.md   # every table
    python jobs/run_all.py --only fig14b --quick     # one table, smoke-scale

Each table is printed to stdout, and with ``--out`` the tables run so far
are written to that file after each one (``results/tables.md`` holds the
numbers EXPERIMENTS.md quotes). Each point's function, kwargs and wall
seconds go to stderr. A table one of whose points raises gets a ``FAILED``
section with its traceback; the other tables still run, and once the output
is written the script exits non-zero naming the failed tables."""
import argparse
import sys
import time
import traceback
from pathlib import Path

# the repro package lives in <repo>/src
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.tables import TABLES, markdown_table  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--quick", action="store_true", help="scaled-down smoke-run parameters"
    )
    ap.add_argument("--only", nargs="+", choices=list(TABLES), metavar="TABLE")
    ap.add_argument("--out", type=Path, help="also write the tables to this file")
    args = ap.parse_args()
    sections, failed = [], []
    for key in args.only or TABLES:
        table = TABLES[key]
        try:
            rows = []
            for fn, kwargs in table.points(args.quick):
                t0 = time.time()
                rows += fn(**kwargs)
                print(
                    f"{key} {fn.__module__}.{fn.__name__} {kwargs}"
                    f" [{time.time() - t0:.1f}s]",
                    file=sys.stderr,
                    flush=True,
                )
            body = markdown_table(rows, table.columns)
        except Exception:
            body = "FAILED:\n```\n" + traceback.format_exc() + "\n```"
            failed.append(key)
        sections.append(f"## {table.title}\n\n{body}\n")
        print(sections[-1], flush=True)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text("\n".join(sections))
    if failed:
        sys.exit(f"failed tables: {', '.join(failed)}")


if __name__ == "__main__":
    main()
