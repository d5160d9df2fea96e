"""Counting microbenchmarks of paper §5.2 (interface overhead) and §5.3
(migration latency/duration/throughput/memory)."""
