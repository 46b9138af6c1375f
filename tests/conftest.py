import sys
from pathlib import Path

import pytest
from hypothesis import settings

from permplace import permspec, pipeline
from permplace.model import load_app

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# oracles.assert_matches_oracle asserts: show the compared values on failure
pytest.register_assert_rewrite("oracles")

# Property tests draw the same examples on every run and are not timed
# per example, so a slow machine cannot fail them.
settings.register_profile(
    "permplace", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("permplace")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def framework():
    return load_app(FIXTURES / "framework.json")


@pytest.fixture(scope="session")
def spec():
    return permspec.load_spec(FIXTURES / "fixture.spec.json")


@pytest.fixture(scope="session")
def groups():
    return permspec.load_groups(FIXTURES / "groups.json")


@pytest.fixture(scope="session")
def threads(spec):
    return pipeline.prepare_paths(
        FIXTURES / "threads.app.json", [FIXTURES / "framework.json"], spec=spec
    )


@pytest.fixture(scope="session")
def viewstub(spec):
    return pipeline.prepare_paths(
        FIXTURES / "viewstub.app.json", [FIXTURES / "framework.json"], spec=spec
    )


@pytest.fixture(scope="session")
def viewstub_noaug(spec):
    return pipeline.prepare_paths(
        FIXTURES / "viewstub.app.json", [FIXTURES / "framework.json"], spec=spec, augment=False
    )


@pytest.fixture(scope="session")
def parametric(spec):
    return pipeline.prepare_paths(
        FIXTURES / "parametric.app.json", [FIXTURES / "framework.json"], spec=spec
    )


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's instance generator, imported from perfbench/ as its
    run.py does, leaving no bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(PERFBENCH))
    return workloads
