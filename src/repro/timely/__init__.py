"""Simulated timely-dataflow substrate.

Provides the dataflow concepts Megaphone is built on (integer logical
timestamps, frontiers, capabilities, exchange channels, probes)
together with a discrete-event cluster model (per-worker clocks, per-process
NIC bandwidth queues) that supplies the latency/duration/memory axes of the
paper's evaluation.
"""
