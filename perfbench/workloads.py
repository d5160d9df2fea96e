"""One benchmark run of one workload, in its own process.

``run.py`` starts this file once per measured run::

    python3 perfbench/workloads.py --workload count-fluid --seed 7 \\
        --seconds 6 --trace 0 --started <time.monotonic() at spawn> \\
        --out result.json

It imports the repo from ``src/``, makes the workload's inputs from the
seed, sets up, runs the timed part, checks the outputs outside the timed
part and writes one JSON result: ``setup_s``, ``timed_s``, ``metrics``,
``checks`` and ``guard`` (simulated outputs that must repeat exactly for a
seed). With ``--trace 1`` the timed part runs once untraced, whose seconds
go to ``baseline_timed_s``, and then once traced. ``--setup-only`` stops
after set-up, so that ``run.py`` can time set-up more than once per run.
An exception during the run is recorded as a failed check; only a failure
to import or set up makes the process fail.

Workloads
---------
count-fluid
    Key-count on the simulator (16 workers in 4 processes, 1024 bins,
    1024e6 nominal keys, 1e6 rec/s open loop in simulated time) with a
    fluid rebalance of 256 bins: the parameters of
    ``repro.microbench.migration.migrate_once``.
nexmark-q4
    NEXMark Q4, Megaphone implementation (8 workers, 1024 bins, 60k events
    at 10k ev/s, ``state_scale=20000``) with a batched imbalance migration
    at 3 s: the parameters of ``table_nexmark_migration``.
spark-fluid
    ``SparkMigratableCount`` on a local[4] SparkSession (8 logical workers,
    64 bins, 200k keys preloaded, 50k-record micro-batches) driven as a
    closed loop: each batch starts when the previous one completes. A
    steady phase is followed by a fluid migration of the 16 moved bins,
    one per batch.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent

COUNT_FLUID = dict(
    impl="megaphone",
    flavour="key",
    nominal_keys=1024e6,
    n_bins=1024,
    rate=1e6,
    # migrate_once(warmup_s=1.0, post_s=1.0): steady window [0.5 s, 1 s),
    # rebalance at 1 s, then run on until the migration completes and drain
    duration_s=2.0,
    warmup_s=0.5,
    migrations=[
        {
            "at_s": 1.0,
            "moves": "rebalance",
            "strategy": "fluid",
            "batch_size": None,
            "gap_ticks": 0,
        }
    ],
    initial_imbalanced=True,
    drain=True,
    keep_inputs=True,
)
COUNT_FLUID_STEPS = 256

NEXMARK_EVENTS = 60_000
NEXMARK_RATE = 10_000.0
NEXMARK_Q4 = dict(
    query="q4",
    impl="megaphone",
    n_events=NEXMARK_EVENTS,
    rate_per_s=NEXMARK_RATE,
    n_bins=1024,
    state_scale=20_000.0,
    migrations=[{"at_s": 3.0, "moves": "imbalance", "strategy": "batched"}],
)
Q4_ORACLE_SQL = """
    SELECT a.category, MAX(b.price) AS fp
    FROM bids b JOIN auctions a ON b.auction = a.id
    WHERE b.ts_ms >= a.ts_ms AND b.ts_ms < a.expires_ms
    GROUP BY a.id, a.category
"""

SPARK_WORKERS = 8
SPARK_BINS = 64
SPARK_KEYS = 200_000
SPARK_BATCH = 50_000
SPARK_WARMUP_BATCHES = 2
SPARK_MIN_STEADY_BATCHES = 4
STEADY_BATCH_S = 1.5  # a warm steady batch here; sizes the steady phase

# Host-speed probe: a pure-Python loop timed before every PROBE_EVERY-th
# simulated tick and before every Spark batch. PROBE_REF_S is its time on
# a quiet 4-core x86 VM; rescaled host times are in seconds of that host
# with no CPU time stolen.
PROBE_LOOP = 2000
PROBE_EVERY = 50
PROBE_REF_S = 125e-6


class Run:
    """What one workload process measured and checked."""

    def __init__(self, args, tracer):
        self.args = args
        self.tracer = tracer
        self.setup_s: float | None = None
        self.timed_s: float | None = None
        self.baseline_timed_s: float | None = None  # untraced pass of a traced run
        self.metrics: dict[str, dict] = {}
        self.checks: list[dict] = []
        self.guard: dict[str, float] = {}

    def ready(self) -> None:
        """Set-up is over: the next thing is the first timed tick or batch."""
        self.setup_s = time.monotonic() - self.args.started

    def metric(self, name: str, unit: str, value: float, n: int = 1, note: str = "") -> None:
        self.metrics[name] = {"unit": unit, "value": float(value), "n": int(n), "note": note}

    def check(self, name: str, fn) -> None:
        """Run one output check; an exception or a False result fails it."""
        try:
            ok, detail = fn(), ""
        except Exception as e:  # a failed check must not stop the benchmark
            ok, detail = False, f"{type(e).__name__}: {e}"
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def failed_run(self, name: str) -> None:
        self.checks.append({"name": name, "ok": False, "detail": traceback.format_exc()})

    def to_json(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "timed_s": self.timed_s,
            "baseline_timed_s": self.baseline_timed_s,
            "metrics": self.metrics,
            "checks": self.checks,
            "guard": self.guard,
        }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process, or of its largest child waited for."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail_pct(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return max(0.0, 100.0 * (n - 10) / n)


def stolen_ticks() -> float:
    """CPU time the hypervisor has given to other guests, summed over this
    machine's CPUs, in clock ticks (0 where the kernel does not say)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()  # cpu user nice system idle iowait irq softirq steal
    return float(fields[8]) if len(fields) > 8 else 0.0


def kept_share(ticks0: float, ticks1: float, seconds: float) -> float:
    """Share of the CPUs this guest kept over ``seconds`` (1 - steal)."""
    stolen = (ticks1 - ticks0) / (os.sysconf("SC_CLK_TCK") * os.cpu_count() * seconds)
    return 1.0 - min(max(stolen, 0.0), 0.9)


def probe() -> float:
    """Seconds this host takes now for a fixed pure-Python loop (median of
    five): the reference that host times are rescaled by."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def step_metrics(run: Run, steps: list[tuple[float, float, bool]], what: str) -> None:
    """Report the timed steps (ticks or batches), each given as (host ms,
    scale to the reference host, in the migration?).

    The end-to-end metrics are rescaled to a reference host: a step's host
    time times the share of the CPUs the guest kept while it ran (the rest
    was stolen by the hypervisor) times ``PROBE_REF_S`` over the probe
    measured before it. A shared host's load slows the steps and the probe
    alike, so this cancels most of the run-to-run drift; the raw times are
    reported beside them."""
    import numpy as np

    raw = np.array([ms for ms, _, _ in steps])
    ref = raw * np.array([scale for _, scale, _ in steps])
    mig = np.array([m for _, _, m in steps])
    n, q = len(raw), tail_pct(len(raw))
    run.metric("step_ref_ms", "ms", ref.mean(), n, f"mean {what}, rescaled")
    run.metric("mig_step_ref_ms", "ms", ref[mig].mean(), int(mig.sum()), f"mean {what} in the migration, rescaled")
    run.metric("step_ms", "ms", raw.mean(), n, f"mean {what}")
    run.metric("mig_step_ms", "ms", raw[mig].mean(), int(mig.sum()), f"mean {what} in the migration")
    run.metric("step_ms.p50", "ms", np.percentile(raw, 50), n, f"p50 {what}")
    run.metric("step_ms.tail", "ms", np.percentile(raw, q), n, f"p{q:.2f} {what}")
    run.metric("mig_step_ms.p50", "ms", np.percentile(raw[mig], 50), int(mig.sum()), f"p50 {what} in the migration")
    run.metric("bench.host_scale", "ratio", np.median(ref / raw), n, "median rescaling of a step")


def simulate(run: Run, once) -> None:
    """Run the timed simulation ``once()``, which returns the run's
    simulated outputs and its migration window as tick indices.

    Untraced, ``once()`` repeats until ``--seconds`` of timed work is spent
    (at least once). Traced, it runs exactly twice: untraced, for the
    denominator of ``bench.tracing_overhead``, then traced, so that the
    per-layer counts are those of one simulation. Every pass has the same
    seed, so its simulated outputs must match the first.

    Host time is also taken per simulated tick, with one clock read either
    side of ``Simulation.step_tick``, and the host-speed probe runs before
    every ``PROBE_EVERY``-th tick, outside any traced span; the measured
    passes' ticks are pooled."""
    from repro.timely.engine import Simulation

    ticks: list[tuple[float, float]] = []  # (host ms, latest probe s)
    latest = [0.0]

    def clock(step_tick) -> None:
        def clocked_step_tick(sim):
            if len(ticks) % PROBE_EVERY == 0:
                latest[0] = probe()
            t0 = time.perf_counter()
            step_tick(sim)
            ticks.append(((time.perf_counter() - t0) * 1e3, latest[0]))

        Simulation.step_tick = clocked_step_tick

    def timed_pass():
        ticks.clear()
        stolen0, t0 = stolen_ticks(), time.perf_counter()
        outputs, (mig_lo, mig_hi) = once()
        wall = time.perf_counter() - t0
        kept = kept_share(stolen0, stolen_ticks(), wall)
        steps = [
            (ms, kept * PROBE_REF_S / p, mig_lo <= i < mig_hi) for i, (ms, p) in enumerate(ticks)
        ]
        return wall, outputs, steps

    step_tick = Simulation.step_tick
    clock(step_tick)
    measured, seen = [], []
    try:
        if run.tracer is None:
            while not measured or sum(wall for wall, _, _ in measured) < run.args.seconds:
                measured.append(timed_pass())
        else:
            import layers

            run.baseline_timed_s, outputs, _ = timed_pass()
            seen.append(outputs)
            Simulation.step_tick = step_tick
            layers.trace_simulator(run.tracer)
            clock(Simulation.step_tick)
            measured.append(timed_pass())
    except Exception:  # e.g. a Property 2 or 3 assertion inside the run
        run.failed_run("run.finished")
        return
    run.check("run.finished", lambda: True)
    walls = [wall for wall, _, _ in measured]
    seen += [outputs for _, outputs, _ in measured]
    run.guard = seen[0]
    run.check("repeat.same_simulated_outputs", lambda: all(o == run.guard for o in seen))
    run.timed_s = median(walls)
    run.metric("wall_s", "s", median(walls), len(walls), "simulation run")
    run.metric("peak_rss_mb", "MB", peak_rss_mb())
    step_metrics(run, [s for _, _, steps in measured for s in steps], "host ms per simulated tick")
    for name, value in run.guard.items():
        run.metric(name, SIM_UNITS[name], value, len(seen), "simulated")


SIM_UNITS = {
    "sim.mig_max_latency_ms": "ms",
    "sim.mig_duration_s": "s",
    "sim.steady_p99_ms": "ms",
    "sim.ticks": "count",
}


def sim_outputs(sim, rec, steady) -> tuple[dict, tuple[int, int]]:
    """The simulated numbers a host-only change must leave unchanged, and
    the migration's first and last tick."""
    tick = sim.cost.tick
    outputs = {
        "sim.mig_max_latency_ms": rec.max_latency_s * 1e3,
        "sim.mig_duration_s": rec.duration_s,
        "sim.steady_p99_ms": steady.percentile(99) * 1e3,
        "sim.ticks": sim.tick_index,
    }
    return outputs, (round(rec.started_s / tick), round(rec.completed_s / tick))


def check_drained(run: Run, sim, rec, steps: int) -> None:
    """Property 3 and migration completion, for one simulated run. Property
    2 is asserted on every apply by the ``ConfigAuthority``: a violation
    raises and fails the ``run.finished`` check."""
    run.check(
        "property3.frontiers_closed",
        lambda: all(op.could_produce is None for op in sim.operators),
    )
    run.check("migration.completed", lambda: rec.completed_s is not None)
    run.check("migration.steps", lambda: rec.steps_issued == rec.steps_total == steps)


# -- count-fluid -----------------------------------------------------------
def count_fluid(run: Run) -> None:
    import numpy as np

    from repro.core.binning import range_bin_of_keys
    from repro.core.strategies import initial_assignment
    from repro.microbench.count import run_count

    run.ready()
    if run.args.setup_only:
        return
    last = {}

    def once():
        last.clear()
        last["run"] = r = run_count(**COUNT_FLUID, seed=run.args.seed)
        return sim_outputs(r.sim, r.migrations[0], r.steady)

    simulate(run, once)
    if "run" not in last:
        return
    r = last["run"]
    sim, rec = r.sim, r.migrations[0]
    check_drained(run, sim, rec, COUNT_FLUID_STEPS)
    run.check(
        "counts.equal_bincount_of_input",
        lambda: np.array_equal(
            r.final_counts, np.bincount(r.input_keys, minlength=len(r.final_counts))
        ),
    )

    def placement() -> bool:
        # the rebalance restores the balanced assignment; every worker must
        # own exactly its bins and hold counts only for their keys
        assign = initial_assignment(r.n_bins, sim.workers)
        domain = len(r.final_counts)
        owner = assign[range_bin_of_keys(np.arange(domain), r.n_bins, domain)]
        s_op = next(op for op in sim.operators if op.name.endswith(".S"))
        return all(
            inst.logic.owned == set(np.flatnonzero(assign == inst.worker).tolist())
            and not inst.logic.counts[owner != inst.worker].any()
            for inst in s_op.instances
        )

    run.check("property2.placement_after_migration", placement)


# -- nexmark-q4 ------------------------------------------------------------
def nexmark_q4(run: Run) -> None:
    import repro.nexmark.stream as stream
    from repro.nexmark.generator import nexmark_events, split_events

    generate = nexmark_events
    if run.tracer is not None:
        generate = run.tracer.wrap(nexmark_events, "nexmark.generate")
    events = generate(NEXMARK_EVENTS, rate_per_s=NEXMARK_RATE, seed=run.args.seed)

    def given_events(n, *, rate_per_s, seed):
        assert (n, rate_per_s, seed) == (NEXMARK_EVENTS, NEXMARK_RATE, run.args.seed)
        return events

    # run_nexmark generates its own stream from the seed; hand it the
    # events made above instead, so generation is set-up, not timed work
    stream.nexmark_events = given_events
    run.ready()
    if run.args.setup_only:
        return
    last = {}

    def once():
        last.clear()
        last["run"] = r = stream.run_nexmark(**NEXMARK_Q4, seed=run.args.seed)
        return sim_outputs(r.sim, r.migrations[0], r.steady)

    simulate(run, once)
    if "run" not in last:
        return
    r = last["run"]
    rec = r.migrations[0]
    check_drained(run, r.sim, rec, rec.steps_total)

    def oracle() -> bool:
        import duckdb

        _, auctions, bids = split_events(events)
        con = duckdb.connect()
        try:
            con.register("auctions", auctions)
            con.register("bids", bids)
            expected = con.execute(Q4_ORACLE_SQL).fetchall()
        finally:
            con.close()
        got = sorted((int(c), float(p)) for c, p in r.results)
        return len(got) > 0 and got == sorted((int(c), float(p)) for c, p in expected)

    run.check("q4.results_equal_duckdb", oracle)


# -- spark-fluid -----------------------------------------------------------
def spark_session(workdir: Path):
    from pyspark.sql import SparkSession

    tmp = str(workdir)
    return (
        SparkSession.builder.master("local[4]")
        .appName("perfbench-spark-fluid")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
        .config("spark.local.dir", tmp)
        .config("spark.sql.warehouse.dir", f"{tmp}/warehouse")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.ui.retainedStages", "100000")
        .config("spark.sql.shuffle.partitions", str(SPARK_WORKERS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM to exit."""
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def stage_counters(sc, groups: list[str]) -> list[dict]:
    """Per job group: completed stages, their tasks, shuffle bytes and
    executor run time, read from Spark's status store through py4j."""
    jvm_store = sc._jsc.sc().statusStore()
    gw = sc._gateway
    stages = jvm_store.stageList(None, False, False, gw.new_array(gw.jvm.double, 0), None)
    by_id = {}
    for i in range(stages.size()):
        st = stages.apply(i)
        if str(st.status()) == "COMPLETE":
            by_id[(st.stageId(), st.attemptId())] = st
    tracker = sc.statusTracker()
    out = []
    for g in groups:
        jobs = [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(g)]
        ids = {s for job in jobs if job is not None for s in job.stageIds}
        done = [st for (sid, _), st in by_id.items() if sid in ids]
        out.append(
            {
                "stages": len(done),
                "tasks": sum(st.numCompleteTasks() for st in done),
                "shuffle_write_bytes": sum(st.shuffleWriteBytes() for st in done),
                "shuffle_read_bytes": sum(st.shuffleReadBytes() for st in done),
                "executor_run_s": sum(st.executorRunTime() for st in done) / 1e3,
            }
        )
    return out


def spark_fluid(run: Run) -> None:
    import numpy as np

    from repro.core.strategies import migration_moves, plan_steps
    from repro.spark_engine.engine import SparkMigratableCount

    steps = plan_steps(migration_moves(SPARK_BINS, SPARK_WORKERS), "fluid")
    n_steady = max(SPARK_MIN_STEADY_BATCHES, math.ceil(run.args.seconds / STEADY_BATCH_S))
    forward = [None] * n_steady + steps
    plans = [forward]
    if run.tracer is not None:
        # an untraced pass first; the traced pass then moves the bins back
        plans.append([None] * n_steady + [[(b, b % SPARK_WORKERS)] for [(b, _)] in steps])
    rng = np.random.default_rng(run.args.seed)
    batches = [np.arange(SPARK_KEYS, dtype=np.int64)] + [
        rng.integers(0, SPARK_KEYS, SPARK_BATCH)
        for _ in range(SPARK_WARMUP_BATCHES + sum(map(len, plans)))
    ]
    t0 = time.monotonic()
    spark = spark_session(Path(os.environ.get("TMPDIR", ROOT / ".perfbench_out" / "tmp")))
    try:
        sc = spark.sparkContext
        sc.setLogLevel("ERROR")
        eng = SparkMigratableCount(spark, n_workers=SPARK_WORKERS, n_bins=SPARK_BINS)
        t1 = time.monotonic()
        # preload one instance of every key, then let the JVM warm up
        for keys in batches[: 1 + SPARK_WARMUP_BATCHES]:
            eng.process_batch(keys)
        print(f"session {t1 - t0:.1f}s, preload and warm-up {time.monotonic() - t1:.1f}s", flush=True)
        run.ready()
        if run.args.setup_only:
            return
        timed = iter(batches[1 + SPARK_WARMUP_BATCHES :])
        done: list[tuple[dict, list | None]] = []  # every timed batch, for the checks
        if run.tracer is not None:
            import layers

            base, _ = spark_loop(run, eng, sc, forward, timed, traced=False)
            run.baseline_timed_s = sum(m["service"] for m in base)
            done += zip(base, forward)
            layers.trace_spark_engine(run.tracer)
        results, groups = spark_loop(run, eng, sc, plans[-1], timed, traced=run.tracer is not None)
        done += zip(results, plans[-1])
        run.timed_s = sum(m["service"] for m in results)
        report_spark(run, results, plans[-1], groups, sc)
        check_spark(run, eng, batches, done, sum(map(len, plans)))
    finally:
        stop_spark(spark)
    run.metric("peak_rss_mb", "MB", peak_rss_mb(), 1, "Python driver")
    # the JVM's RSS follows its heap sizing more than the work: 1.9-2.6 GB
    # between runs of one seed, so it is reported but not bounded
    run.metric("spark.jvm_peak_rss_mb", "MB", peak_rss_mb(resource.RUSAGE_CHILDREN), 1, "Spark JVM")


def spark_loop(run: Run, eng, sc, plan: list, batches, traced: bool):
    """Run one batch per entry of ``plan`` (a migration step or None), each
    as soon as the previous one completes. Returns the batches' metrics and,
    if ``traced``, the Spark job group of each (else no groups)."""
    results, groups = [], []
    try:
        for step in plan:
            if traced:
                groups.append(f"perfbench-batch-{len(groups)}")
                sc.setJobGroup(groups[-1], "timed batch")
            speed = probe()
            stolen0, started = stolen_ticks(), time.perf_counter()
            m = eng.process_batch(next(batches), moves=step)
            m["service"] = time.perf_counter() - started
            m["scale"] = kept_share(stolen0, stolen_ticks(), m["service"]) * PROBE_REF_S / speed
            results.append(m)
            print(
                f"batch migrating={step is not None} traced={traced} "
                f"service={m['service']:.3f}s moved_rows={m['moved_rows']}",
                flush=True,
            )
    except Exception:
        run.failed_run("batches.all_completed")
    return results, groups


def report_spark(run: Run, results: list[dict], plan: list, groups: list[str], sc) -> None:
    import numpy as np

    if not results:
        return
    run.metric("wall_s", "s", run.timed_s, len(results), "timed batches")
    step_metrics(
        run,
        [(m["service"] * 1e3, m["scale"], bool(step)) for m, step in zip(results, plan)],
        "ms per batch",
    )
    run.metric(
        "spark_engine.moved_rows", "count", sum(m["moved_rows"] for m in results), sum(map(bool, plan))
    )
    if groups:
        counters = stage_counters(sc, groups)
        for phase, migrating in (("steady", False), ("migrating", True)):
            rows = [c for c, step in zip(counters, plan) if bool(step) == migrating]
            for key, unit in (
                ("stages", "count"),
                ("tasks", "count"),
                ("shuffle_write_bytes", "B"),
                ("shuffle_read_bytes", "B"),
                ("executor_run_s", "s"),
            ):
                vals = [c[key] for c in rows]
                run.metric(
                    f"spark_engine.{key}_per_batch.{phase}",
                    unit,
                    np.median(vals) if vals else 0.0,
                    len(vals),
                    "median",
                )


def check_spark(run: Run, eng, batches, done: list, planned: int) -> None:
    import numpy as np

    from repro.core.binning import bin_of_keys

    run.check("batches.all_completed", lambda: len(done) == planned)
    fed = np.concatenate(batches[: 1 + SPARK_WARMUP_BATCHES + len(done)])

    def counts() -> bool:
        got = eng.counts_pandas()
        dense = np.zeros(SPARK_KEYS, dtype=np.int64)
        dense[got.key.to_numpy()] = got.cnt.to_numpy()
        return len(got) == SPARK_KEYS and np.array_equal(
            dense, np.bincount(fed, minlength=SPARK_KEYS)
        )

    run.check("counts.equal_bincount_of_input", counts)

    def placement() -> bool:
        p = eng.placement_pandas()
        return len(p) == SPARK_BINS and bool(
            (p.worker.to_numpy() == eng.routing[p.bin.to_numpy()]).all()
        )

    run.check("placement.follows_routing", placement)
    keys_per_bin = np.bincount(bin_of_keys(np.arange(SPARK_KEYS), SPARK_BINS), minlength=SPARK_BINS)
    run.check(
        "migration.moved_rows_equal_bin_sizes",
        lambda: all(
            m["moved_rows"] == (keys_per_bin[step[0][0]] if step else 0) for m, step in done
        ),
    )


WORKLOADS = {
    "count-fluid": count_fluid,
    "nexmark-q4": nexmark_q4,
    "spark-fluid": spark_fluid,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = Run(args, tracer)
    WORKLOADS[args.workload](run)
    result = run.to_json()
    if tracer is not None and not args.setup_only:
        import layers

        for name, (value, n) in layers.layer_metrics(tracer).items():
            if name not in run.metrics:
                run.metric(name, "", value, n)
        result["metrics"] = run.metrics
        # the cost model's RNG advances on every charge, so a host-only
        # change must keep this count for a seed
        result["guard"]["timely.charge.calls"] = run.metrics["timely.charge.calls"]["value"]
        tracer.save(str(ROOT / ".perfbench_out" / f"spans-{args.workload}.npz"))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
