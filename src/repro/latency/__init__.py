"""Latency recording and analysis (log-binned histograms, percentiles)."""
