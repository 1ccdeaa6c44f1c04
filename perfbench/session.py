"""One Ray session per worker process, with deadlines and clean kills.

Each ``Session`` is a worker process, started as a session leader, that
calls ``ray.init``; every Ray process it starts (GCS, raylet, workers,
actors) inherits that session id. An op that misses its deadline is
handled by killing exactly the processes of that session, so nothing
else on the machine is touched and no ``ray stop`` is run. The worker
also takes its session down if the benchmark process disappears.

The worker's stdout and stderr go to a log file in the work directory:
``tools/job.py`` prints a JSON summary and Ray logs to stderr, and the
benchmark's stdout must end with its own result line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from multiprocessing.connection import Connection

# Ray's Unix socket paths must fit in 107 bytes; "/session_<date>_<pid>"
# plus "/sockets/plasma_store" takes up to 64 of them.
_MAX_RAY_DIR = 107 - 64
OBJECT_STORE_BYTES = 768 * 1024**2


class DeadlineMissed(Exception):
    pass


class OpFailed(Exception):
    pass


def ray_temp_dir(work: str) -> "tuple[str, bool]":
    """Ray's session root: inside the checkout when the path is short
    enough for Unix sockets, else a private temp dir (removed by the
    caller). Returns (path, is_private_tmp)."""
    path = os.path.join(work, "r")
    if len(path) <= _MAX_RAY_DIR:
        return path, False
    import tempfile

    return tempfile.mkdtemp(prefix="pb-ray-"), True


def session_pids(sid: int) -> list[int]:
    """Live processes whose session id is ``sid``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        pid = int(name)
        try:
            if os.getsid(pid) == sid:
                out.append(pid)
        except OSError:
            continue
    return out


def pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PssSampler:
    """Background sampler of the summed PSS of this process and every
    live worker session; ``peak_mb`` is the largest sum seen."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.sids: set[int] = set()
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        pids = {os.getpid()}
        for sid in list(self.sids):
            pids.update(session_pids(sid))
        self.peak_kb = max(self.peak_kb, sum(pss_kb(p) for p in pids))

    def _run(self):
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


class Session:
    """A worker process owning one Ray session.

    ``setup_s`` is the worker's own measure of engine + registry import,
    ``ray.init`` and (when ``side_dir`` is given) the side-table build;
    ``registry_s`` is the part of it that imports the query registry.
    """

    def __init__(self, *, repo: str, work: str, ray_dir: str, num_cpus: int,
                 side_dir: "str | None", sampler: "PssSampler | None",
                 deadline: float = 120.0):
        ours, theirs = socket.socketpair()
        self.log = os.path.join(work, "worker.log")
        with open(self.log, "ab") as log, theirs:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(theirs.fileno()),
                 json.dumps([repo, ray_dir, num_cpus, side_dir])],
                pass_fds=(theirs.fileno(),), start_new_session=True,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
        self._conn = Connection(ours.detach())
        self.sampler = sampler
        if sampler is not None:
            sampler.sids.add(self.proc.pid)
        started = self._wait(deadline, "start")
        self.setup_s = started["setup_s"]
        self.registry_s = started["registry_s"]

    def _wait(self, deadline: float, op: str):
        if not self._conn.poll(deadline):
            self.kill()
            raise DeadlineMissed(f"{op} exceeded {deadline:.0f}s")
        try:
            status, value = self._conn.recv()
        except EOFError:
            self.kill()
            raise OpFailed(f"{op}: worker died (see {self.log})") from None
        if status != "ok":
            raise OpFailed(f"{op}: {value}")
        return value

    def call(self, op: str, deadline: float, **kw):
        self._conn.send((op, kw))
        return self._wait(deadline, op)

    def kill(self):
        """SIGKILL every process of this session, then reap the worker."""
        sid = self.proc.pid
        for _ in range(3):
            pids = session_pids(sid)
            if not pids:
                break
            for pid in pids:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)
        with contextlib.suppress(subprocess.TimeoutExpired):
            self.proc.wait(10)
        self._conn.close()
        self._forget()

    def stop(self):
        """Orderly ``ray.shutdown``; kill whatever is left of the session."""
        if self.proc.poll() is None:
            with contextlib.suppress(DeadlineMissed, OpFailed, OSError):
                self.call("stop", 60.0)
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.proc.wait(30)
        self.kill()

    def _forget(self):
        if self.sampler is not None:
            self.sampler.sids.discard(self.proc.pid)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _die_with_parent(parent: int):
    """If the benchmark process goes away (killed, timed out), take this
    session -- the worker and every Ray process -- down with it."""
    while os.getppid() == parent:
        time.sleep(1.0)
    me = os.getpid()
    for pid in session_pids(me):
        if pid != me:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
    os._exit(1)


def serve(conn, repo, ray_dir, num_cpus, side_dir):
    threading.Thread(target=_die_with_parent, args=(os.getppid(),), daemon=True).start()
    for p in (repo, os.path.join(repo, "tools")):
        if p not in sys.path:
            sys.path.insert(0, p)
    worker = _Worker(ray_dir, num_cpus, side_dir)
    try:
        conn.send(("ok", {"setup_s": worker.setup(), "registry_s": worker.registry_s}))
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    while True:
        op, kw = conn.recv()
        try:
            conn.send(("ok", getattr(worker, "op_" + op)(**kw)))
        except Exception:
            conn.send(("error", traceback.format_exc()))
        if op == "stop":
            return


@contextlib.contextmanager
def _job_shuffle():
    """Ray Data's shuffle strategy as ``tools/job.py`` sets it (push-based
    sort shuffle) inside the block, and the session's own default after
    it, so ops that run after a job see what they would see alone."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    before = ctx.shuffle_strategy
    ctx.shuffle_strategy = "sort_shuffle_push_based"
    try:
        yield
    finally:
        ctx.shuffle_strategy = before


class _Worker:
    def __init__(self, ray_dir, num_cpus, side_dir):
        self.ray_dir = ray_dir
        self.num_cpus = num_cpus
        self.side_dir = side_dir
        self.import_s = 0.0
        self.registry_s = 0.0
        self.queries = None

    def setup(self) -> float:
        t0 = time.perf_counter()
        import ray  # noqa: F401
        import ray.data  # noqa: F401

        import job  # noqa: F401

        t1 = time.perf_counter()
        import __ray_entry__

        self.queries = __ray_entry__.queries()
        t2 = time.perf_counter()
        self.registry_s = t2 - t1
        self.import_s = t2 - t0
        return self.import_s + self._init()

    def _init(self) -> float:
        """``ray.init`` plus the side-table build the job does."""
        import ray
        from ray.data import DataContext

        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=self.ray_dir,
        )
        DataContext.get_current().enable_progress_bars = False
        if self.side_dir:
            from ptrail_ray.sources.transcripts import side_scd_from_events
            from ptrail_ray.stages.asof import put_side_table

            put_side_table(side_scd_from_events(self.side_dir))
        return time.perf_counter() - t0

    def op_reinit(self) -> dict:
        import ray

        ray.shutdown()
        return {"setup_s": self.import_s + self._init()}

    def op_job(self, argv: list) -> float:
        import job

        with _job_shuffle():
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                job.main(list(argv))
            return time.perf_counter() - t0

    def op_query(self, name: str, sf_dir: str):
        import pandas as pd

        t0 = time.perf_counter()
        res = self.queries[name](sf_dir)
        if not isinstance(res, pd.DataFrame):
            res = res.to_pandas()
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "result": res,
                "nbytes": int(res.memory_usage(deep=True).sum())}

    def op_scan_exchange(self, corpus: str, num_buckets: int, reps: int) -> dict:
        """Wall of a full Ray scan of the corpus, and of the same scan
        followed by the conversation exchange (``map_conv_buckets`` with
        an identity kernel) under the job's shuffle strategy, each
        materialized; ``reps`` timed rounds after one untimed round."""
        import ray

        from ptrail_ray.sources.transcripts import read_transcripts
        from ptrail_ray.stages.bucket import map_conv_buckets

        def identity(table):
            return table

        nblocks = max(8, int(ray.cluster_resources().get("CPU", 1)) * 4)
        scan, exch = [], []
        with _job_shuffle():
            for _ in range(reps + 1):
                t0 = time.perf_counter()
                ds = read_transcripts(corpus, override_num_blocks=nblocks).materialize()
                scan.append(time.perf_counter() - t0)
                del ds
                t0 = time.perf_counter()
                ds = map_conv_buckets(
                    read_transcripts(corpus, override_num_blocks=nblocks),
                    identity,
                    num_buckets=num_buckets,
                ).materialize()
                exch.append(time.perf_counter() - t0)
                del ds
        return {"scan_s": scan[1:], "exchange_s": exch[1:]}

    def op_verify_layout(self, path: str):
        from verify_layout import verify_layout

        return verify_layout(path)

    def op_stop(self) -> None:
        import ray

        ray.shutdown()


if __name__ == "__main__":
    serve(Connection(int(sys.argv[1])), *json.loads(sys.argv[2]))
