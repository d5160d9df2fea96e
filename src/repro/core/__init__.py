"""Megaphone core: binned state, timestamped configuration streams, the F/S
operator pair, migration strategies (all-at-once / batched / fluid /
optimized), and the open-loop harness every simulated workload runs on."""
