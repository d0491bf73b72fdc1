"""The import budget: a run loads only the modules it uses.

Package ``__init__`` files re-export their names lazily (see
:mod:`repro._lazy`) and the experiment registry imports an experiment's
module only when it runs, so optional subsystems (defense, chaos
faults, HTTP load, fleet, checkpointing, exporters) stay unloaded in a
run that does not use them.  The checks count modules in a fresh
interpreter, not time: a bytecode cache makes import timings vary by
machine, while the set of loaded modules does not.
"""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.experiments import runner

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Every repro package, the root included.
PACKAGES = ["repro"] + sorted(
    name for _finder, name, is_package in pkgutil.walk_packages(repro.__path__, "repro.")
    if is_package
)

#: Modules of subsystems that a plain measurement never uses.
OPTIONAL = (
    "repro.defense.controller",
    "repro.chaos.faults",
    "repro.chaos.runtime",
    "repro.apps.http_load",
    "repro.core.fleet",
    "repro.core.checkpoint",
    "repro.obs.export",
    "repro.obs.tracing.export",
)

_REPORT = """
import json, sys
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "repro")))
"""


def _loaded_after(script: str) -> set:
    """The ``repro`` modules loaded once ``script`` ran in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script + _REPORT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestModuleSet:
    def test_a_paper_bed_measurement_loads_no_optional_subsystem(self):
        loaded = _loaded_after(
            "from repro.experiments import runner\n"
            "runner.REGISTRY['fig2'].entry\n"
            "from repro import DeviceKind, FloodToleranceValidator, MeasurementSettings\n"
            "FloodToleranceValidator(\n"
            "    DeviceKind.EFW, MeasurementSettings(duration=0.05, flood_lead=0.02)\n"
            ").bandwidth_under_flood(20000.0)\n"
        )
        assert "repro.core.testbed" in loaded
        assert "repro.experiments.fig2_bandwidth" in loaded
        unused = [
            spec.entry.__module__ for spec in runner.REGISTRY.values()
            if spec.experiment_id != "fig2"
        ]
        assert len(set(unused)) == len(runner.REGISTRY) - 1
        assert sorted(loaded.intersection(OPTIONAL + tuple(unused))) == []

    def test_importing_every_package_loads_none_of_their_modules(self):
        loaded = _loaded_after("".join(f"import {name}\n" for name in PACKAGES))
        assert loaded == set(PACKAGES) | {"repro._lazy"}


@pytest.mark.parametrize("name", PACKAGES)
class TestPublicNames:
    def test_every_exported_name_resolves_and_is_listed(self, name):
        package = sys.modules[name]
        listed = dir(package)
        for exported in package.__all__:
            assert getattr(package, exported) is not None, exported
            assert exported in listed, exported

    def test_star_import_binds_every_exported_name(self, name):
        package = sys.modules[name]
        namespace = {}
        exec(f"from {name} import *", namespace)
        for exported in package.__all__:
            assert namespace[exported] is getattr(package, exported), exported

    def test_an_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError):
            getattr(sys.modules[name], "no_such_name")


def test_a_submodule_still_imports_by_from_package():
    loaded = _loaded_after(
        "from repro.obs import export\n"
        "import repro.obs\n"
        "assert repro.obs.export is export and export.__name__ == 'repro.obs.export'\n"
    )
    assert "repro.obs.export" in loaded
