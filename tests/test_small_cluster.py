"""The engine finishes on 1- and 2-CPU clusters.

No stage may reserve a fixed number or fraction of CPUs that the cluster
cannot hold: the as-of join used to run as an actor pool at 0.5 CPU per
actor, which left no room for the 1-CPU bucket tasks, so ``entry()`` hung
forever at ``num_cpus=1``; the MinHash signature and media decode stages
were actor pools of at least two actors and hung there the same way.
Each case runs in its own Ray session in a subprocess under a deadline,
so a hang fails the test instead of the suite.
"""

import contextlib
import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 240

SESSION = """
import sys

import ray

ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR", object_store_memory=256 * 1024**2)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
"""

CASES = {
    "flagship": """
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
""",
    # 200 docs, doc k + 100 an exact copy of doc k: 100 pairs at jaccard 1.
    # The inputs are read from parquet, so read tasks run upstream of the
    # stage under test and need a CPU of their own.
    "minhash": """
import os

import numpy as np
import pandas as pd
import ray.data as rd

from ptrail_ray.functions.dedup import minhash_lsh_pairs

words = np.array("alpha beta gamma delta eps zeta eta theta iota kappa".split())
rng = np.random.default_rng(5)
texts = [" ".join(rng.choice(words, size=40)) + f" doc{k}" for k in range(100)]
os.makedirs(sys.argv[2])
pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64), "text": texts * 2}).to_parquet(
    os.path.join(sys.argv[2], "docs.parquet"))
out = minhash_lsh_pairs(rd.read_parquet(sys.argv[2]), jaccard_threshold=0.9).to_pandas()
exact = out[out["jaccard"] == 1.0]
assert len(exact) == 100 and (exact["b"] - exact["a"] == 100).all(), exact
""",
    "decode": """
import os

import pyarrow.parquet as pq
import ray.data as rd

from ptrail_ray.functions.multimodal import (
    decode_audio_features,
    decode_features,
    frame_sample_features,
    synth_media,
    synth_ppmv_media,
    synth_wav_media,
)

def read(name, table):
    os.makedirs(sys.argv[2], exist_ok=True)
    pq.write_table(table, os.path.join(sys.argv[2], name))
    return rd.read_parquet(os.path.join(sys.argv[2], name))


img = decode_features(read("img.parquet", synth_media(40)), fake=True).to_pandas()
wav = decode_audio_features(read("wav.parquet", synth_wav_media(n=40))).to_pandas()
frames = frame_sample_features(read("ppmv.parquet", synth_ppmv_media(n=20))).count()
assert len(img) == 40 and img["decoded_ok"].all()
assert len(wav) == 40 and (wav["sample_rate"] == wav["true_rate"]).all()
assert frames > 0
""",
}


def _kill_session(sid: int) -> None:
    """SIGKILL every live process of session ``sid`` (the script and the
    Ray processes it started)."""
    for name in os.listdir("/proc"):
        if name.isdigit():
            with contextlib.suppress(OSError):
                if os.getsid(int(name)) == sid:
                    os.kill(int(name), signal.SIGKILL)


def _run(case: str, num_cpus: int, tmp_path) -> list[str]:
    """Run ``case`` in a fresh ``num_cpus`` session and return the words
    it prints. A run past ``DEADLINE_S`` fails the test as a hang."""
    proc = subprocess.Popen(
        [sys.executable, "-c", SESSION + CASES[case] + "ray.shutdown()\n",
         str(num_cpus), str(tmp_path / "corpus")],
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
        pytest.fail(f"{case} hung at num_cpus={num_cpus} (> {DEADLINE_S} s)")
    finally:
        _kill_session(proc.pid)
    assert proc.returncode == 0, err[-2000:]
    return out.split()


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_flagship_finishes_on_small_cluster(tmp_path, num_cpus):
    entry_rows, auto_rows, matched = map(int, _run("flagship", num_cpus, tmp_path)[-3:])
    assert entry_rows > 0 and auto_rows > 0
    assert matched == auto_rows


@pytest.mark.parametrize("case", ["minhash", "decode"])
def test_task_stages_finish_at_one_cpu(tmp_path, case):
    """MinHash signatures and the media decoders were actor pools of at
    least two actors; each case asserts its own output."""
    _run(case, 1, tmp_path)
