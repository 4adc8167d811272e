"""Public-API hygiene: __all__ lists are accurate and importable."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.relational",
    "repro.core",
    "repro.sql",
    "repro.distributed",
    "repro.optimizer",
    "repro.data",
    "repro.bench",
    "repro.cube",
    "repro.service",
    "repro.cache",
    "repro.sketches",
    "repro.skew",
    "repro.topology",
    "repro.distributed.transport",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_no_duplicate_exports(package_name):
    package = importlib.import_module(package_name)
    assert len(package.__all__) == len(set(package.__all__))


def test_top_level_convenience_symbols():
    import repro
    for name in ("QueryBuilder", "agg", "count_star", "b", "r",
                 "Relation", "Schema", "GmdjExpression", "SkallaError"):
        assert name in repro.__all__


def test_version_string():
    import repro
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_every_module_has_docstring():
    import pathlib
    import repro
    root = pathlib.Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        source = path.read_text()
        stripped = source.lstrip()
        assert stripped.startswith('"""') or stripped.startswith("'''"), \
            f"{path.relative_to(root)} lacks a module docstring"
