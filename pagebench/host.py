"""Host fingerprint and process-tree accounting read from ``/proc``."""

from __future__ import annotations

import os
import platform
import signal
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def affinity_cores() -> int:
    """Cores this process may run on (``OMP_NUM_THREADS`` and the like
    do not change it)."""
    return len(os.sched_getaffinity(0))


def fingerprint(*, num_cpus: int, seed: int, corpus_rows: int,
                corpus_bytes: int) -> dict:
    """Numbers from runs with different fingerprints are not comparable."""
    import pyarrow
    import ray

    return {
        "affinity_cores": affinity_cores(),
        "cpu_count": os.cpu_count(),
        "ray_num_cpus": num_cpus,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
        "corpus_rows": corpus_rows,
        "corpus_bytes": corpus_bytes,
        "seed": seed,
    }


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue  # exited while listing
        # the command name may hold spaces or parentheses: split after it
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _rss(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as f:
            return int(f.read().split()[1]) * _PAGE
    except OSError:
        return 0


def tree_rss() -> int:
    """Summed RSS of this process and its Ray worker descendants."""
    me = os.getpid()
    return _rss(me) + sum(_rss(p) for p in descendants(me) if _is_ray_worker(p))


class PeakRss:
    """Samples :func:`tree_rss` on a background thread while entered."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss())
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:stat.rindex(b")") + 3] != b"Z"


def stop_processes(pids, timeout_s: float = 15.0) -> list[int]:
    """Wait until every pid in ``pids`` and every remaining descendant of
    this process has exited, reaping our own children; after
    ``timeout_s`` kill what is left. Returns the pids that had to be
    killed. Pass the descendants listed before shutting Ray down: its
    workers are reparented when their raylet exits."""
    pids = set(pids)
    deadline = time.monotonic() + timeout_s
    killed: list[int] = []
    while True:
        pids |= set(descendants(os.getpid()))
        for pid in list(pids):
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # not our child, or already reaped
            if not _alive(pid):
                pids.discard(pid)
        if not pids:
            return killed
        if time.monotonic() > deadline:
            if killed:
                return killed
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.1)
