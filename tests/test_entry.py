"""Driver-contract smoke tests for __ray_entry__."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import __ray_entry__ as entrymod


def test_entry_runs(ray_session):
    out = entrymod.entry()
    pdf = out.to_pandas() if hasattr(out, "to_pandas") else out
    assert len(pdf) >= 0
    for col in ["conv_id", "turn_idx", "len_rate", "session_id", "attr_num"]:
        assert col in pdf.columns


def test_queries_oracle_keys():
    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    assert len(qs) >= 20
    # every oracle has a query
    assert set(sqls) <= set(qs)
    # the large majority of queries are oracle-checked
    assert len(sqls) >= 20
