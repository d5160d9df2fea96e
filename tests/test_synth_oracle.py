"""Tests for the DuckDB oracle itself (used by count/NEXMark correctness
tests)."""
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent


class TestOracle:
    def test_accepts_equivalent(self, spark):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        got = spark.createDataFrame(
            pd.DataFrame({"k": [1, 2], "s": [3.0, 3.0]})
        )
        assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)

    def test_rejects_wrong_result(self, spark):
        pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        got = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "s": [9.0, 9.0]}))
        with pytest.raises(AssertionError):
            assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)

    def test_rejects_column_mismatch(self, spark):
        pdf = pd.DataFrame({"k": [1]})
        got = spark.createDataFrame(pd.DataFrame({"wrong": [1]}))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(got, "SELECT k FROM t", t=pdf)

    def test_tpch_q1_lite(self, spark):
        """A TPC-H Q1-style aggregate over a small lineitem table,
        oracle-checked (exercises the shuffle path with broadcast joins
        disabled)."""
        import pyspark.sql.functions as F

        g = np.random.default_rng(1)
        n = 400
        li = spark.createDataFrame(
            pd.DataFrame(
                {
                    "l_quantity": g.integers(1, 51, n).astype("float64"),
                    "l_returnflag": g.choice(list("NRA"), n),
                    "l_linestatus": g.choice(list("OF"), n),
                    "l_shipdate": pd.to_datetime("1992-01-01")
                    + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
                }
            )
        )

        got = (
            li.filter(F.col("l_shipdate") <= "1998-09-01")
            .groupBy("l_returnflag", "l_linestatus")
            .agg(
                F.sum("l_quantity").alias("sum_qty"),
                F.count("*").alias("cnt"),
            )
        )
        assert_equivalent(
            got,
            """
            SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
                   COUNT(*) AS cnt
            FROM li WHERE l_shipdate <= TIMESTAMP '1998-09-01'
            GROUP BY 1, 2
            """,
            li=li,
        )
