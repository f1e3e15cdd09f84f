"""Shared fixtures — ONE Ray session per pytest run."""

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Deterministic 240-row sharded pages corpus on disk."""
    from ocr_pipeline_ray.corpus import write_pages_corpus

    out = tmp_path_factory.mktemp("pages")
    paths = write_pages_corpus(str(out), 240, seed=42, n_shards=4)
    return paths


def pytest_terminal_summary(terminalreporter):
    """Name each test module skipped as a whole, with its reason — the
    summary line alone shows only a count."""
    skipped = {}
    for rep in terminalreporter.stats.get("skipped", []):
        if "::" in rep.nodeid:
            continue  # a single skipped test, not a module
        longrepr = rep.longrepr
        reason = longrepr[2] if isinstance(longrepr, tuple) else longrepr
        skipped.setdefault(rep.nodeid, reason)
    if skipped:
        terminalreporter.section("skipped test modules")
        for module, reason in sorted(skipped.items()):
            terminalreporter.write_line(f"{module}: {reason}")
