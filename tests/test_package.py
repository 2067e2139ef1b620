import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import blgroups


def test_public_names_are_their_submodules_objects():
    for name, module in blgroups._EXPORTS.items():
        home = importlib.import_module(f"blgroups.{module}")
        assert getattr(blgroups, name) is vars(home)[name]
        # read through on every access, never stored in the package
        assert name not in vars(blgroups)
    assert len(set(blgroups.__all__)) == len(blgroups.__all__) == len(blgroups._EXPORTS)
    assert set(blgroups.__all__) <= set(dir(blgroups))
    with pytest.raises(AttributeError, match="no_such_name"):
        blgroups.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from blgroups import *", namespace)
    for name in blgroups.__all__:
        assert namespace[name] is getattr(blgroups, name)


def test_bare_import_loads_no_submodule(package_env):
    script = (
        "import json, sys\n"
        "import blgroups\n"
        "bare = sorted(m for m in sys.modules if m.startswith('blgroups.'))\n"
        "blgroups.make_cyclic_product([2])\n"
        "used = sorted(m for m in sys.modules if m.startswith('blgroups.'))\n"
        "print(json.dumps([bare, used]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    bare, used = json.loads(proc.stdout)
    assert bare == []
    assert used == ["blgroups.groups"]


def _perfbench_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names for --trace, so renaming or
    # deleting one breaks the traced benchmark run
    tracer = _perfbench_tracer()
    assert tracer.TARGETS
    for module, qualname in tracer.TARGETS:
        obj = importlib.import_module(f"blgroups.{module}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (module, qualname)


def test_tracer_installs_and_uninstalls():
    # a name resolves even when inherited, but install patches a method only
    # through the class's own __dict__
    from blgroups import cache, constant

    tracer = _perfbench_tracer()
    bl_constant, subgroups = constant.bl_constant, cache.SubgroupCache.__dict__["subgroups"]
    t = tracer.Tracer()
    t.install()
    try:
        assert constant.bl_constant is not bl_constant
        assert cache.SubgroupCache.__dict__["subgroups"] is not subgroups
    finally:
        t.uninstall()
    assert constant.bl_constant is bl_constant
    assert cache.SubgroupCache.__dict__["subgroups"] is subgroups


def test_digest_script_imports_resolve():
    # scripts/digests.py gates every change to the answers: loading it, without
    # running main, fails on any library name it imports that no longer exists
    path = Path(__file__).resolve().parent.parent / "scripts" / "digests.py"
    spec = importlib.util.spec_from_file_location("blgroups_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert callable(digests.main)
