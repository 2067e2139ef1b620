import ast
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


# Where the package builds a group, a map or a datum.  A boundary validates
# what it is given (`FiniteGroup(...)`, `Homomorphism(...)`, `BLDatum(...)`);
# a derived constructor builds a group, a homomorphism or a datum by
# construction and skips the check (`._built(...)`, reasons in the `groups`
# docstring).
VALIDATING = {
    ("groups", "make_cyclic_product", "FiniteGroup"),
    ("groups", "from_cayley_table", "FiniteGroup"),
    ("groups", "from_permutations", "FiniteGroup"),
    ("serialize", "parse_datum", "Homomorphism"),
    ("serialize", "parse_datum", "BLDatum"),
    ("datum", "make_datum", "BLDatum"),
}
TRUSTING = {
    ("groups", "direct_product", "FiniteGroup._built"),
    ("groups", "direct_product", "Homomorphism._built"),
    ("groups", "quotient", "FiniteGroup._built"),
    ("groups", "quotient", "Homomorphism._built"),
    ("groups", "subgroup_group", "FiniteGroup._built"),
    ("groups", "subgroup_group", "Homomorphism._built"),
    ("groups", "compose", "Homomorphism._built"),
    ("groups", "identity_map", "Homomorphism._built"),
    ("datum", "_onto_image", "Homomorphism._built"),
    ("datum", "split_product", "Homomorphism._built"),
    ("datum", "quotient_split", "Homomorphism._built"),
    ("datum", "BLDatum.with_haar", "BLDatum._built"),
    ("datum", "_restricted", "BLDatum._built"),
    ("datum", "_without", "BLDatum._built"),
    ("datum", "canonicalize", "BLDatum._built"),
    ("datum", "split_product", "BLDatum._built"),
    ("datum", "quotient_split", "BLDatum._built"),
    ("corpus", "frame_datum", "BLDatum._built"),
}


# Where the package computes a group's greedy generating set: only the two
# validating checks read it, so no derived constructor pays for it.
GENERATORS = {
    ("groups", "FiniteGroup.__post_init__", "_greedy_generators"),
    ("groups", "Homomorphism.__post_init__", "_greedy_generators"),
}


BUILT = ("FiniteGroup", "Homomorphism", "BLDatum")


def _calls(names=BUILT):
    """(module, enclosing qualified name, callee) for every call of one of
    `names`, or of an attribute of one, in the package's source."""
    calls = set()

    def visit(module, node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
            elif isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Name) and f.id in names:
                    calls.add((module, where, f.id))
                elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                      and f.value.id in names):
                    calls.add((module, where, f"{f.value.id}.{f.attr}"))
            visit(module, child, inner)

    for path in sorted(Path(blgroups.__file__).resolve().parent.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()), "<module>")
    return calls


def test_groups_and_maps_are_built_only_where_listed():
    # a new call site has to join VALIDATING or TRUSTING on purpose
    calls = _calls()
    assert calls - VALIDATING - TRUSTING == set()
    assert calls == VALIDATING | TRUSTING


def test_generators_are_computed_only_where_listed():
    # a derived constructor that computed them again would join this set
    assert _calls(("_greedy_generators",)) == GENERATORS
