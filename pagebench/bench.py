"""Set-up, the closed measuring loop and the result line.

Load is a closed loop with one client: a single Python process runs one
pipeline job at a time and starts the next only after the previous one
returned and its output was checked. Ray runs locally with one CPU slot
per core in this process's affinity mask.
"""

from __future__ import annotations

import logging
import os
import shutil
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from pagebench import corpus, host
from pagebench.workloads import (CORPUS_DOCS, LAYER_METRICS, WORKLOADS, Inputs,
                                 Tracer)

SETUP_ROUNDS = 3        # corpus builds per run; set-up reports their median
ITER_TIMEOUT_S = 60.0   # a job still running after this counts as failed
RUN_BUDGET_S = 150.0    # every job ends by this long after process start
OBJECT_STORE_BYTES = 512 * 1024 * 1024
MAX_SOCKET_PATH = 107   # AF_UNIX limit Ray enforces on its session sockets


class JobTimeout(Exception):
    pass


def _call_with_timeout(fn, timeout_s: float):
    """Run ``fn`` on a daemon thread; raise JobTimeout if it has not
    returned after ``timeout_s``. A timed-out job is abandoned: the caller
    stops measuring and shuts Ray down, which ends it."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the caller's thread
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout_s)
    if t.is_alive():
        raise JobTimeout(f"job still running after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def _ray_temp_dir(base: Path) -> str | None:
    """Ray's temp directory inside the checkout when its session socket
    paths fit the AF_UNIX limit, else Ray's default."""
    path = str((base / "ray").resolve())
    # <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
    return path if len(path) + 64 <= MAX_SOCKET_PATH else None


def _start_ray(num_cpus: int, root: Path) -> str:
    """Start a local Ray session; returns its session directory."""
    import ray
    from ray.data import DataContext

    info = ray.init(
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=_ray_temp_dir(root / ".pagebench"),
        # the package is not installed: workers import it from the root
        runtime_env={"env_vars": {"PYTHONPATH": str(root)}},
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return info.address_info["session_dir"]


def _warm_read(pages: Path) -> None:
    """Read the corpus once so the timed jobs start from a warm page cache
    and from workers that have already imported the engine."""
    import ray.data as rd

    def touch(t):
        import dupers_ray.pipelines.dupe  # noqa: F401

        return t.select(["url"])

    rd.read_parquet(str(pages), columns=["url", "text"]).map_batches(
        touch, batch_format="pyarrow").materialize()


def _clean_stale_runs(base: Path) -> None:
    """Remove work directories of runs whose process is gone."""
    for d in base.glob("run-*"):
        pid = d.name.split("-", 1)[1]
        if not (pid.isdigit() and Path(f"/proc/{pid}").exists()):
            shutil.rmtree(d, ignore_errors=True)


def _setup(wl, seed: int, root: Path, work: Path, num_cpus: int,
           docs: int | None) -> tuple[Inputs, dict, list[str], str]:
    """Build the corpus SETUP_ROUNDS times (median timed), start Ray, warm
    the read and build the store. Returns the inputs, the set-up times,
    input problems (a fresh build that differs from another build with
    the same key) and Ray's session directory."""
    import pyarrow.parquet as pq

    spec = corpus.CorpusSpec(n=docs or CORPUS_DOCS, seed=seed, store=wl.store)
    cache = root / ".pagebench" / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    key = corpus.cache_key(root, spec)
    times: dict[str, float] = {}
    gen, digests = [], set()
    for r in range(SETUP_ROUNDS):
        stage = work / f"stage{r}"
        seconds, digest = corpus.build_corpus(stage, spec)
        gen.append(seconds)
        digests.add(digest)
        if r:
            shutil.rmtree(stage)
    problems = [] if len(digests) == 1 else [
        f"{SETUP_ROUNDS} corpus builds from seed {seed} gave "
        f"{len(digests)} different corpora"]
    times["corpus_s"] = statistics.median(gen)

    stage = work / "stage0"
    t0 = time.perf_counter()
    session_dir = _start_ray(num_cpus, root)
    times["ray_start_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _warm_read(stage / "pages")
    times["warm_read_s"] = time.perf_counter() - t0

    manifest = {"key": key, "digests": {"corpus": digests.pop()}}
    if spec.store:
        times["store_s"], manifest["digests"]["store"] = corpus.build_store(stage)
    problems += corpus.publish(stage, cache / key, manifest)
    corpus.evict(cache)

    entry = cache / key
    inputs = Inputs(
        pages=entry / "pages",
        truth=pq.read_table(str(entry / "truth.parquet")),
        store=entry / "store" if spec.store else None,
    )
    return inputs, times, problems, session_dir


def _median(xs):
    return statistics.median(xs) if xs else None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Samples:
    """What the measuring loop saw: job seconds per mode, the tracers of
    the traced jobs, recall per checked job and every problem found."""

    untraced: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    layers: list[Tracer] = field(default_factory=list)
    recalls: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _measure(wl, inp: Inputs, work: Path, seconds: float, trace: bool,
             t_start: float) -> Samples:
    """Closed loop: run jobs one after another, alternating untraced and
    traced ones when tracing, while the next job is expected to end within
    ``seconds`` and at least until every mode ran once. Each job's output
    is checked outside its timed region."""
    s = Samples()
    modes = ["untraced", "traced"] if trace else ["untraced"]
    t_loop = time.monotonic()
    i = 0
    while True:
        mode = modes[i % len(modes)]
        left = RUN_BUDGET_S - (time.monotonic() - t_start)
        if left < 1.0:
            break
        out_dir = work / f"iter{i}"
        out_dir.mkdir()
        tr = Tracer()
        job = (lambda: wl.traced(inp, out_dir, tr)) if mode == "traced" \
            else (lambda: wl.run(inp, out_dir))
        s.attempted += 1
        t0 = time.perf_counter()
        try:
            out = _call_with_timeout(job, min(ITER_TIMEOUT_S, left))
        except JobTimeout as e:
            s.failed += 1
            s.problems.append(f"iteration {i} ({mode}): {e}")
            break  # the abandoned job still holds Ray's slots
        except Exception:
            s.failed += 1
            s.problems.append(f"iteration {i} ({mode}): "
                              + traceback.format_exc(limit=3))
        else:
            dt = time.perf_counter() - t0
            recall, problems = wl.check(inp, out)
            if problems:
                s.failed += 1
                s.problems += [f"iteration {i} ({mode}): {p}" for p in problems]
            s.recalls.append(recall)
            if mode == "traced":
                s.traced.append(dt)
                s.layers.append(tr)
            else:
                s.untraced.append(dt)
        shutil.rmtree(out_dir, ignore_errors=True)
        i += 1
        # stop before a job that would likely end after the window
        nxt = s.traced if modes[i % len(modes)] == "traced" else s.untraced
        expected = _median(nxt) or 0.0
        if i >= len(modes) and time.monotonic() - t_loop + expected > seconds:
            break
    return s


def _per_layer(s: Samples) -> dict:
    """Median seconds per layer over the traced jobs and counts from the
    last one (they repeat exactly). A layer the workload does not run
    reports 0."""
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name.startswith("trace."):
            continue
        if unit == "s":
            value = _median([t.spans.get(name, 0.0) for t in s.layers])
        else:
            value = s.layers[-1].counts.get(name, 0)
        metrics[name] = _metric(value, unit)
    layer_sum = sum(m["value"] for m in metrics.values() if m["unit"] == "s")
    metrics["trace.layer_sum_s"] = _metric(layer_sum, "s")
    metrics["trace.overhead_ratio"] = _metric(
        _median(s.traced) / _median(s.untraced), "ratio")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        *, t_start: float | None = None, docs: int | None = None
        ) -> tuple[dict, dict]:
    """Set up, measure and check one workload. Returns (detail, result);
    ``result`` is the benchmark's result line. ``docs`` overrides the
    workload's corpus size (the tests use tiny corpora)."""
    import ray

    wl = WORKLOADS[workload]
    t_start = time.monotonic() if t_start is None else t_start
    num_cpus = host.affinity_cores()
    base = root / ".pagebench"
    base.mkdir(exist_ok=True)
    _clean_stale_runs(base)
    work = base / f"run-{os.getpid()}"
    work.mkdir()

    detail: dict = {"workload": workload, "seed": seed, "trace": trace}
    procs: list[int] = []
    session_dir = None
    try:
        inp, setup, input_problems, session_dir = _setup(
            wl, seed, root, work, num_cpus, docs)
        detail["setup"] = setup
        n_rows = inp.truth.num_rows
        detail["fingerprint"] = host.fingerprint(
            num_cpus=num_cpus, seed=seed, corpus_rows=n_rows,
            corpus_bytes=corpus.dir_bytes(inp.pages))
        with host.PeakRss() as rss:
            s = _measure(wl, inp, work, seconds, trace, t_start)
    finally:
        if ray.is_initialized():
            procs = host.descendants(os.getpid())
            ray.shutdown()
        detail["killed_pids"] = host.stop_processes(procs)
        shutil.rmtree(work, ignore_errors=True)
        for d in (session_dir, _ray_temp_dir(base)):
            if d:
                shutil.rmtree(d, ignore_errors=True)

    s.problems = input_problems + s.problems
    if input_problems and not s.failed:
        s.failed = 1  # inputs that differ between builds spoil every job
    detail.update(untraced_s=s.untraced, traced_s=s.traced, problems=s.problems)
    metrics: dict = {}
    if trace and s.traced and s.untraced:
        metrics = _per_layer(s)
    elif not trace and s.untraced:
        wall = _median(s.untraced)
        metrics = {
            "wall_s": _metric(wall, "s"),
            "docs_per_s": _metric(n_rows / wall, "docs/s"),
            "setup_s": _metric(sum(setup.values()), "s"),
            "peak_rss_mb": _metric(rss.peak / 2**20, "MB"),
            "recall_min": _metric(min(s.recalls), "ratio"),
        }
    result = {
        "correct": not s.problems and bool(metrics),
        "attempted": max(s.attempted, 1),
        "failed": s.failed if s.attempted else 1,
        "metrics": metrics,
    }
    return detail, result
