"""Shared CLI runner for table-reproduction jobs.

Each job module defines ``TITLE`` and ``main(quick: bool) -> (rows, columns)``
and calls :func:`run` — giving every job a uniform ``--quick`` flag (scaled
parameters for smoke runs) and markdown output suitable for EXPERIMENTS.md.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# the repro package lives in <repo>/src
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.tables import print_table  # noqa: E402


def run(title: str, main) -> None:
    ap = argparse.ArgumentParser(description=title)
    ap.add_argument(
        "--quick", action="store_true", help="scaled-down smoke-run parameters"
    )
    args = ap.parse_args()
    t0 = time.time()
    rows, columns = main(quick=args.quick)
    print_table(title, rows, columns)
    print(f"[{time.time() - t0:.1f}s]", file=sys.stderr)
