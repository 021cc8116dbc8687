import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

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


@pytest.fixture
def salt_path(monkeypatch):
    """Choose the node layer's salting path.  ``first_seen_names`` reads
    its salting constants when it runs, so this patches them for one test:
    ``salt_path(1)`` never salts; ``salt_path(n)`` salts with ``n``
    buckets without running the skew probe (``measure_top_key_share``);
    ``salt_path(min_rows=..., share=...)`` keeps the measured decision on
    thresholds scaled to a small corpus."""
    import kgray.stages.nodes as nodes

    def choose(buckets=None, min_rows=None, share=None):
        if buckets == 1:
            monkeypatch.setattr(nodes, "SALT_MIN_ROWS", float("inf"))
        elif buckets:
            monkeypatch.setattr(nodes, "SALT_MIN_ROWS", 0)
            monkeypatch.setattr(nodes, "AUTO_SALT_BUCKETS", buckets)
            monkeypatch.setattr(
                nodes, "measure_top_key_share", lambda m: (1.0, m.count())
            )
        if min_rows is not None:
            monkeypatch.setattr(nodes, "SALT_MIN_ROWS", min_rows)
        if share is not None:
            monkeypatch.setattr(nodes, "SALT_SHARE_THRESHOLD", share)

    return choose
