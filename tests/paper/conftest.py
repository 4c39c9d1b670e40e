"""Shared fixture: every registered experiment runs once per session."""

import pytest

from repro.bench.experiments import experiment_registry


@pytest.fixture(scope="session")
def experiment():
    """``experiment(key, **kwargs)`` returns the registry's result for
    ``key``, measured on first use and shared by every later caller: the
    shape tests, the golden table and the EXPERIMENTS.md check all read
    the same run."""
    results = {}

    def run(key, **kwargs):
        token = (key, tuple(sorted(kwargs.items())))
        if token not in results:
            results[token] = experiment_registry[key](**kwargs)
        return results[token]

    return run
