"""Meta-tests on the public API surface.

Production-quality guards: every public module, class and function is
documented; every ``__all__`` name resolves; the experiment registry and
strategy registry are complete and runnable.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro.util",
    "repro.simtime",
    "repro.hardware",
    "repro.networks",
    "repro.threading",
    "repro.pioman",
    "repro.core",
    "repro.api",
    "repro.obs",
    "repro.bench",
]


def walk_modules():
    seen = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        seen.append(pkg)
        for info in pkgutil.walk_packages(pkg.__path__, prefix=pkg_name + "."):
            seen.append(importlib.import_module(info.name))
    return seen


ALL_MODULES = walk_modules()


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_documented(self, module):
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module.__name__} lacks a module docstring"
        )

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_classes_and_functions_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, (
            f"{module.__name__}: undocumented public items {undocumented}"
        )

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_all_names_resolve(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ lists missing name {name!r}"
            )


class TestRegistries:
    def test_every_strategy_constructs_and_reports_name(self):
        from repro.core.strategies import make_strategy, strategy_registry

        for name in strategy_registry:
            strategy = make_strategy(name)
            assert strategy.name == name or name in (
                "mx", "elan"
            ), f"{name} constructs a strategy reporting {strategy.name!r}"

    def test_every_experiment_has_a_callable_runner(self):
        from repro.bench.experiments import experiment_registry

        for key, runner in experiment_registry.items():
            assert callable(runner), key
            assert runner.__doc__, f"experiment {key} runner lacks a docstring"

    def test_every_driver_default_profile_is_consistent(self):
        from repro.networks.drivers import driver_registry

        for name, cls in driver_registry.items():
            driver = cls()
            assert driver.profile.name == cls.technology
            caps = driver.capabilities()
            assert caps.eager_limit >= 1
