"""Which ``repro`` entry points the traced run wraps, and how its spans and
counters reduce to the per-layer metrics named in ``BENCHMARK.json``.

Layers are named after the repo's modules: ``timely`` (the simulated
runtime), ``core`` (Megaphone's F/S operators, routing, authority and
migration driver), ``latency``, ``microbench``, ``nexmark`` and
``spark_engine``. ``bench`` holds numbers about the harness itself.
"""
from __future__ import annotations

import numpy as np

from tracer import Tracer

def trace_simulator(tr: Tracer) -> None:
    """Wrap the public entry points of the simulated runtime and of the
    Megaphone operators built on it."""
    from repro.core.control import ConfigAuthority, RoutingTable
    from repro.core.strategies import MigrationDriver
    from repro.timely.engine import Channel, Ctx, Operator, Simulation

    tr.patch(Simulation, "step_tick", "timely.step_tick")
    tr.patch(Simulation, "recompute_frontiers", "timely.recompute_frontiers")
    tr.patch(Channel, "deliver_due", "timely.deliver_due")
    tr.patch(Ctx, "charge", "timely.charge")

    def sent(args, _):
        ctx, _channel, dst, batch = args
        cost = ctx.sim.cost
        if cost.process_of(ctx.worker) != cost.process_of(dst):
            tr.count("timely.send.cross_process_bytes", batch.nbytes)

    tr.patch(Ctx, "send", "timely.send", sent)
    tr.patch(
        Ctx,
        "record_latency",
        "latency.record",
        lambda args, _: tr.count("latency.record.values", len(args[1])),
    )

    def looked_up(args, _):
        # the authority keeps its own RoutingTable; only F's table counts
        if tr.current() != "core.authority.check":
            tr.high("core.routing.epochs.max", len(args[0].times))

    tr.patch(RoutingTable, "lookup", "core.routing.lookup", looked_up)

    def checked(args, _):
        tr.last["core.authority.epochs"] = len(args[0].table.times)

    tr.patch(ConfigAuthority, "check", "core.authority.check", checked)

    def drove(args, _):
        tr.last["core.driver.steps"] = sum(r.steps_issued for r in args[0].records)

    tr.patch(MigrationDriver, "on_tick", "core.driver.on_tick", drove)

    add_instances = Operator.add_instances

    def traced_add_instances(op, factory):
        add_instances(op, factory)
        role = "core." + op.name.rsplit(".", 1)[-1]  # core.F, core.S, core.native
        for inst in op.instances:
            _trace_instance(tr, role, inst)

    Operator.add_instances = traced_add_instances


def _trace_instance(tr: Tracer, role: str, inst) -> None:
    useful = f"{role}.schedule.useful"
    tr.patch(inst, "schedule", f"{role}.schedule", lambda a, did: did and tr.count(useful))
    if hasattr(inst, "uninstall_bin"):
        tr.patch(inst, "uninstall_bin", f"{role}.uninstall_bin")
    logic = getattr(inst, "logic", None)
    if logic is None:
        return
    layer = type(logic).__module__.split(".")[1]  # repro.<layer>.<module>
    records = f"{layer}.apply.records"
    tr.patch(
        logic, "apply", f"{layer}.apply", lambda a, _: tr.count(records, len(a[1]["k"]))
    )
    tr.patch(logic, "extract_bin", f"{layer}.extract_bin")
    tr.patch(logic, "install_bin", f"{layer}.install_bin")


def trace_spark_engine(tr: Tracer) -> None:
    """Wrap the Spark engine's batch and migration entry points."""
    from repro.spark_engine.engine import SparkMigratableCount

    tr.patch(SparkMigratableCount, "process_batch", "spark_engine.process_batch")
    tr.patch(
        SparkMigratableCount,
        "migrate",
        lambda self, moves: "spark_engine.migrate" if moves else "spark_engine.migrate.noop",
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, int]]:
    """Reduce spans and counters to ``{metric: (value, sample count)}``.

    Layers that a workload never calls read 0.
    """
    own, calls, c = tr.self_seconds(), tr.calls(), tr.counts
    ticks_ms = tr.durations("timely.step_tick") * 1e3
    out: dict[str, tuple[float, int]] = {
        "timely.step_tick.host_ms.p50": (_pct(ticks_ms, 50), len(ticks_ms)),
        "timely.step_tick.host_ms.p99": (_pct(ticks_ms, 99), len(ticks_ms)),
        "timely.send.messages": (calls.get("timely.send", 0), 1),
        "timely.send.cross_process_bytes": (c["timely.send.cross_process_bytes"], 1),
        "timely.charge.calls": (calls.get("timely.charge", 0), 1),
        "timely.recompute_frontiers.calls": (calls.get("timely.recompute_frontiers", 0), 1),
        "core.routing.epochs.max": (tr.maxima.get("core.routing.epochs.max", 0), 1),
        "core.authority.epochs": (tr.last.get("core.authority.epochs", 0), 1),
        "core.driver.steps": (tr.last.get("core.driver.steps", 0), 1),
        "latency.record.calls": (calls.get("latency.record", 0), 1),
        "latency.record.values": (c["latency.record.values"], 1),
        "microbench.apply.records": (c["microbench.apply.records"], 1),
        "nexmark.apply.records": (c["nexmark.apply.records"], 1),
    }
    for span in (
        "timely.step_tick",
        "timely.recompute_frontiers",
        "timely.send",
        "timely.deliver_due",
        "core.F.schedule",
        "core.S.schedule",
        "core.S.uninstall_bin",
        "core.routing.lookup",
        "core.authority.check",
        "core.driver.on_tick",
        "latency.record",
        "microbench.apply",
        "nexmark.apply",
    ):
        out[f"{span}.self_s"] = (own.get(span, 0.0), calls.get(span, 0))
    for role in ("core.F", "core.S"):
        n = calls.get(f"{role}.schedule", 0)
        out[f"{role}.schedule.calls"] = (n, 1)
        out[f"{role}.schedule.useful_ratio"] = (_ratio(c[f"{role}.schedule.useful"], n), n)
    out["core.S.uninstall_bin.calls"] = (calls.get("core.S.uninstall_bin", 0), 1)
    gen = tr.durations("nexmark.generate")
    out["nexmark.generate.s"] = (float(gen.sum()), len(gen))
    batches = tr.durations("spark_engine.process_batch")
    moves = tr.durations("spark_engine.migrate")
    out["spark_engine.process_batch.s.p50"] = (_pct(batches, 50), len(batches))
    out["spark_engine.migrate.s.p50"] = (_pct(moves, 50), len(moves))
    # reported by the workload itself where it runs that layer
    for name in WORKLOAD_REPORTED:
        out[name] = (0.0, 0)
    return out


WORKLOAD_REPORTED = [
    "sim.mig_max_latency_ms",
    "sim.mig_duration_s",
    "sim.steady_p99_ms",
    "sim.ticks",
    "spark_engine.moved_rows",
] + [
    f"spark_engine.{counter}_per_batch.{phase}"
    for phase in ("steady", "migrating")
    for counter in ("stages", "tasks", "shuffle_write_bytes", "shuffle_read_bytes", "executor_run_s")
]
