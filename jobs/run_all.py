"""Run every table-reproduction job and write results to
``results/tables.md`` (the numbers quoted in EXPERIMENTS.md).

A job that raises gets a ``FAILED`` section with its traceback; the other
jobs still run, and once the file is written the script exits non-zero
naming the failed jobs."""
import argparse
import importlib
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, os.path.dirname(__file__))
# the repro package lives in <repo>/src
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.tables import markdown_table  # noqa: E402

JOBS = [
    "table1_nexmark_loc",
    "table_fig1_headline",
    "table_fig13b_hash_count",
    "table_fig14b_key_count",
    "table_fig15b_key_count_large",
    "table_fig16_bins",
    "table_fig17_keys",
    "table_fig18_proportional",
    "table_fig19_throughput",
    "table_fig20_memory",
    "table_nexmark_migration",
    "table_spark_engine",
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--only", nargs="*", default=None)
    ap.add_argument("--out", default="results/tables.md")
    args = ap.parse_args()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    sections, failed = [], []
    for name in args.only or JOBS:
        mod = importlib.import_module(name)
        t0 = time.time()
        print(f"=== {name} ===", file=sys.stderr)
        try:
            rows, columns = mod.main(quick=args.quick)
            body = markdown_table(rows, columns)
        except Exception:
            body = "FAILED:\n```\n" + traceback.format_exc() + "\n```"
            failed.append(name)
        sections.append(f"## {mod.TITLE}\n\n{body}\n")
        print(f"    [{time.time() - t0:.1f}s]", file=sys.stderr)
        with open(args.out, "w") as f:
            f.write("\n".join(sections))
    print(f"wrote {args.out}", file=sys.stderr)
    if failed:
        sys.exit(f"failed jobs: {', '.join(failed)}")


if __name__ == "__main__":
    main()
