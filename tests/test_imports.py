"""One import path per name: a package re-exports nothing, so each name is
imported from the module that defines it, and no package attribute hides
a submodule behind a function of the same name."""

import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import verikg

_SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_submodule_attribute_is_the_submodule():
    names = [m.name for m in pkgutil.walk_packages(verikg.__path__, "verikg.")]
    for name in names:
        importlib.import_module(name)
    assert "verikg.engine.check" in names
    for name in names:
        parent, _, attr = name.rpartition(".")
        assert getattr(sys.modules[parent], attr) is sys.modules[name], name


def test_import_as_binds_the_module():
    import verikg.engine.check as check
    import verikg.engine.coverage as coverage
    import verikg.rtl.elaborate as elaborate
    import verikg.sva.bind as bind

    for module in (check, coverage, elaborate, bind):
        assert isinstance(module, types.ModuleType), module


def test_pipeline_loads_only_what_a_run_uses():
    probe = "import sys, verikg.pipeline; print(*sorted(sys.modules), sep='\\n')"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": str(_SRC)}, check=True)
    loaded = set(out.stdout.split())
    assert "verikg.pipeline" in loaded
    assert not loaded & {"verikg.ir.diff", "verikg.engine.external", "verikg.cli"}
