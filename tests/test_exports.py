"""Every package's public names resolve, although none is imported eagerly.

Package ``__init__`` files bind their exports for linters only (under
``if TYPE_CHECKING:``) and resolve them on first access through
:mod:`repro._lazy`; a typo in one of those import lines fails here.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def test_every_package_is_listed():
    assert len(PACKAGES) >= 17, PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
def test_public_names_resolve(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is not None, f"{name}.{export}"
        assert export in listed, f"{export} missing from dir({name})"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        package.not_exported  # noqa: B018


def test_submodules_resolve_as_attributes():
    import repro.cluster

    assert repro.cluster.sim.ClusterSim is repro.cluster.ClusterSim


def test_importing_a_package_imports_none_of_its_submodules():
    code = (
        "import json, sys\n"
        f"for name in {PACKAGES!r}: __import__(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(repro.__path__[0])),
    )
    loaded = json.loads(proc.stdout)
    assert loaded == sorted(["repro", "repro._lazy", *PACKAGES])
