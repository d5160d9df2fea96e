"""Repo benchmark: simulator host cost, simulated outputs and real Spark
batch latency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload count-fluid --seed 7 --seconds 6 --trace 0

Each measured run happens in a fresh process (``workloads.py``). With
``--trace 0`` this prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it runs the workload with the repo's entry points
wrapped in spans and prints the per-layer metrics. A table with units,
sample counts and check results goes first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (output
checks) and ``metrics``.

Everything the runs leave behind goes to ``.perfbench_out/`` in the
checkout: per-run logs, span files of traced runs, a scratch directory per
process (``TMPDIR`` and Spark's local directory) and ``ledger.json``. The
ledger holds, per workload and seed, the simulated outputs of the first
run (a later run with the same seed must reproduce them exactly).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("count-fluid", "nexmark-q4", "spark-fluid")
# set-up is timed in this many processes per run; a Spark set-up (JVM,
# preload, warm-up) costs ~30 s, so spark-fluid times only its own
SETUP_SAMPLES = {"count-fluid": 3, "nexmark-q4": 3, "spark-fluid": 1}
DEADLINE_S = 175.0  # a run must finish within 180 s


class Benchmark:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.checks: list[dict] = []

    # -- child processes ----------------------------------------------------
    def spawn(self, trace: int, *, setup_only: bool = False) -> dict | None:
        """Run ``workloads.py`` in a new process; its result or None."""
        a = self.args
        tag = f"{a.workload}-seed{a.seed}-trace{trace}{'-setup' if setup_only else ''}"
        tmp = OUT / "tmp" / f"{tag}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        result_file = tmp / "result.json"
        env = dict(os.environ, TMPDIR=str(tmp), SPARK_LOCAL_DIRS=str(tmp))
        env["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
        cmd = [
            sys.executable,
            str(ROOT / "perfbench" / "workloads.py"),
            f"--workload={a.workload}",
            f"--seed={a.seed}",
            f"--seconds={a.seconds}",
            f"--trace={trace}",
            f"--out={result_file}",
        ]
        if setup_only:
            cmd.append("--setup-only")
        log = OUT / "logs" / f"{tag}.log"
        try:
            with open(log, "w") as out:
                started = time.monotonic()
                proc = subprocess.Popen(
                    cmd + [f"--started={started!r}"],
                    stdin=subprocess.DEVNULL,
                    stdout=out,
                    stderr=subprocess.STDOUT,
                    env=env,
                    start_new_session=True,
                )
                try:
                    code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    code = None
                finally:
                    # the process group also holds anything the child started
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    proc.wait()
            if code == 0 and result_file.exists():
                return json.loads(result_file.read_text())
            why = "timed out" if code is None else f"exited with {code}"
            tail = log.read_text().splitlines()[-30:]
            print(f"[perfbench] {tag} {why}; log {log}:", *tail, sep="\n  ", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # -- ledger ---------------------------------------------------------------
    def remember(self, res: dict) -> None:
        """Check ``res``'s simulated outputs against the reference for this
        workload and seed (one check, once there is a reference), then add
        the keys the reference lacks to it."""
        a = self.args
        path = OUT / "ledger.json"
        ledger = json.loads(path.read_text()) if path.exists() else {}
        key = f"{a.workload} seed={a.seed}"
        ref, guard = ledger.setdefault(key, {}), res.get("guard") or {}
        common = sorted(set(ref) & set(guard))
        if common:
            diff = [k for k in common if ref[k] != guard[k]]
            self.checks.append(
                {
                    "name": "guard.same_as_reference_run_of_seed",
                    "ok": not diff,
                    "detail": ", ".join(f"{k}: {ref[k]} != {guard[k]}" for k in diff),
                }
            )
        for k, v in guard.items():
            ref.setdefault(k, v)
        tmp = OUT / "ledger.json.tmp"
        tmp.write_text(json.dumps(ledger, indent=1))
        tmp.replace(path)

    # -- runs -----------------------------------------------------------------
    def run(self) -> int:
        a = self.args
        res = self.spawn(a.trace)
        if res is None:
            return 1
        self.remember(res)
        metrics = res["metrics"]
        if a.trace:
            if res["timed_s"] and res["baseline_timed_s"]:
                metrics["bench.tracing_overhead"] = {
                    "unit": "ratio",
                    "value": res["timed_s"] / res["baseline_timed_s"],
                    "n": 1,
                    "note": "traced / untraced timed seconds, one process",
                }
            wanted = self.spec["per_layer"]
        else:
            setups = [res["setup_s"]]
            for _ in range(SETUP_SAMPLES[a.workload] - 1):
                extra = self.spawn(0, setup_only=True)
                if extra is None:
                    return 1
                setups.append(extra["setup_s"])
            metrics["setup_s"] = {
                "unit": "s",
                "value": median(setups),
                "n": len(setups),
                "note": "median over processes",
            }
            wanted = self.spec["end_to_end"]
        self.report(res["checks"] + self.checks, metrics, wanted)
        return 0

    def report(self, checks: list[dict], metrics: dict, wanted: list[dict]) -> None:
        a = self.args
        failed = [c for c in checks if not c["ok"]]
        print(f"perfbench {a.workload} seed={a.seed} seconds={a.seconds} trace={a.trace}")
        print(f"  {'metric':<52} {'value':>16} {'unit':<6} {'n':>6}  note")
        units = {m["name"]: m["unit"] for m in wanted}
        for name, m in metrics.items():
            unit = units.get(name, m["unit"])
            print(f"  {name:<52} {m['value']:>16.6g} {unit:<6} {m['n']:>6}  {m['note']}")
        print(f"  checks: {len(checks)} attempted, {len(failed)} failed")
        for c in failed:
            print(f"  FAILED {c['name']}: {c['detail']}", file=sys.stderr)
        out = {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        }
        print(
            json.dumps(
                {
                    "correct": not failed and len(out) == len(wanted),
                    "attempted": len(checks),
                    "failed": len(failed),
                    "metrics": out,
                }
            )
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=6)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in ("BENCHMARK.json", "src/repro") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a checkout of the repo, missing {missing}", file=sys.stderr)
        return 2
    (OUT / "logs").mkdir(parents=True, exist_ok=True)
    # on SIGTERM, unwind so that spawn() kills the running child's group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return Benchmark(args).run()


if __name__ == "__main__":
    sys.exit(main())
