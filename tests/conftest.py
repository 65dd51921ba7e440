from __future__ import annotations

import sys

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def pages_small():
    """Deterministic synthetic pages corpus + ground truth (seed 42, n=600)."""
    from dupers_ray.synth import synth_pages

    return synth_pages(n=600, seed=42)


@pytest.fixture
def force_cogroup(monkeypatch):
    """Call to push every count-gated join onto its cogroup route
    (``joins.BROADCAST_ROWS = 0`` and ``joins.PAIR_BROADCAST_ROWS = 0``).
    Returns call counts of the names the cogroup routes run — ``lookup``:
    ``joins.cogroup_join`` as called by ``lookup_join``; ``pair``: the
    same as called by ``map_pairs`` (two per call); ``membership``:
    ``maintenance.anti_join_shuffle`` as called by
    ``anti_join_auto``/``membership_flags`` — so a test can prove the
    route ran instead of comparing broadcast with broadcast."""
    from dupers_ray.pipelines import joins, maintenance

    def apply() -> dict:
        calls = {"lookup": 0, "membership": 0, "pair": 0}

        def join_spy(*a, _real=joins.cogroup_join, **k):
            caller = sys._getframe(1).f_code.co_name
            calls["pair" if caller == "map_pairs" else "lookup"] += 1
            return _real(*a, **k)

        def membership_spy(*a, _real=maintenance.anti_join_shuffle, **k):
            calls["membership"] += 1
            return _real(*a, **k)

        monkeypatch.setattr(joins, "cogroup_join", join_spy)
        monkeypatch.setattr(maintenance, "anti_join_shuffle", membership_spy)
        monkeypatch.setattr(joins, "BROADCAST_ROWS", 0)
        monkeypatch.setattr(joins, "PAIR_BROADCAST_ROWS", 0)
        return calls

    return apply


@pytest.fixture
def force_exchange(monkeypatch):
    """Call to push every group map onto the sort exchange
    (``grouping.LOCAL_GROUP_BYTES = 0``). Returns the call count of the
    sort route, ``calls["sort"]``, so a test can prove the exchange ran
    instead of comparing the one-task route with itself."""
    from dupers_ray.functions import grouping

    def apply() -> dict:
        calls = {"sort": 0}

        def sort_spy(*a, _real=grouping._sort_map_groups, **k):
            calls["sort"] += 1
            return _real(*a, **k)

        monkeypatch.setattr(grouping, "_sort_map_groups", sort_spy)
        monkeypatch.setattr(grouping, "LOCAL_GROUP_BYTES", 0)
        return calls

    return apply
