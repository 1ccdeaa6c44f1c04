"""The flagship finishes on 1- and 2-CPU clusters.

No stage may reserve a fixed number or fraction of CPUs that the cluster
cannot hold: the as-of join used to run as an actor pool at 0.5 CPU per
actor, which left no room for the 1-CPU bucket tasks, so ``entry()`` hung
forever at ``num_cpus=1``. Each case runs in its own Ray session in a
subprocess under a deadline, so a hang fails the test instead of the
suite.
"""

import contextlib
import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 240

SCRIPT = """
import sys

import ray

ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR", object_store_memory=256 * 1024**2)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

import pandas as pd
import pyarrow.dataset as pads

import __ray_entry__ as entrymod
from ptrail_ray.pipelines.flagship import flagship_auto
from ptrail_ray.sources.transcripts import write_synth

entry_rows = entrymod.entry().count()
corpus = write_synth(sys.argv[2], n_convs=40, mean_turns=8, seed=3, n_files=3,
                     n_hot=0)
# one side-table version per conversation, effective at its first turn:
# the inclusive as-of probe matches every turn
turns = pads.dataset(corpus).to_table(columns=["conv_id", "ts"]).to_pandas()
first = turns.groupby("conv_id")["ts"].min()
side = pd.DataFrame({"key": first.index, "effective_ts": first.to_numpy(),
                     "attr_num": 1.0, "attr_cat": "v"})
out = flagship_auto(corpus, side).to_pandas()
print(entry_rows, len(out), int(out["attr_num"].notna().sum()))
ray.shutdown()
"""


def _kill_session(sid: int) -> None:
    """SIGKILL every live process of session ``sid`` (the script and the
    Ray processes it started)."""
    for name in os.listdir("/proc"):
        if name.isdigit():
            with contextlib.suppress(OSError):
                if os.getsid(int(name)) == sid:
                    os.kill(int(name), signal.SIGKILL)


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_flagship_finishes_on_small_cluster(tmp_path, num_cpus):
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(num_cpus), str(tmp_path / "corpus")],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        _kill_session(proc.pid)
        proc.communicate()
        pytest.fail(f"flagship hung at num_cpus={num_cpus} (> {DEADLINE_S} s)")
    finally:
        _kill_session(proc.pid)
    assert proc.returncode == 0, err[-2000:]
    entry_rows, auto_rows, matched = map(int, out.split()[-3:])
    assert entry_rows > 0 and auto_rows > 0
    assert matched == auto_rows
