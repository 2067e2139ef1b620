import hashlib
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from blgroups.cli import main
from blgroups.exact import ExactValue, exact_max
from blgroups.groups import DEFAULT_ORDER_CAP, GroupStructureError, SizeCapError, all_subgroups
from blgroups.heisenberg import ScanBudgetError
from blgroups.lie import IdealSpec, closed_pool
from blgroups.oracle import BudgetError, _Form
from blgroups.serialize import SchemaError, parse_datum, parse_group, parse_lie_datum

LW_Z2Z2 = {
    "group": {"cyclic": [2, 2]},
    "codomains": [{"cyclic": [2]}, {"cyclic": [2]}],
    "maps": [[0, 0, 1, 1], [0, 1, 0, 1]],
    "p": ["2", "2"],
    "haar": {"G": "probability", "codomains": ["probability", "probability"]},
}

HOELDER_Z2 = {
    "group": {"cyclic": [2]},
    "codomains": [{"cyclic": [2]}, {"cyclic": [2]}],
    "maps": [[0, 1], [0, 1]],
    "p": ["1", "1"],
}

T3_LW = {
    "simple_dims": [],
    "torus_dim": 3,
    "maps": [
        {"kept_simple": [], "torus_matrix": [[0, 1, 0], [0, 0, 1]]},
        {"kept_simple": [], "torus_matrix": [[1, 0, 0], [0, 0, 1]]},
        {"kept_simple": [], "torus_matrix": [[1, 0, 0], [0, 1, 0]]},
    ],
}


@pytest.fixture()
def write(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_constant_command(write, capsys, tmp_path):
    path = write("lw.json", LW_Z2Z2)
    code, rep = run_cli(
        capsys, ["constant", "--in", path, "--cache-dir", str(tmp_path / "cache")]
    )
    assert code == 0
    assert rep["result"]["value_approx"] == 1.0
    assert rep["result"]["argmax"] == [0, 1, 2, 3]
    assert rep["version"]


def test_verify_command_agreement(write, capsys, tmp_path):
    path = write("hoelder.json", HOELDER_Z2)
    code, rep = run_cli(
        capsys,
        ["verify", "--in", path, "--restarts", "8",
         "--cache-dir", str(tmp_path / "cache")],
    )
    assert code == 0
    r = rep["result"]
    assert r["formula"]["value"]["primes"] == {"2": "1"}
    assert abs(r["oracle"]["value_approx"] - 2.0) <= 1e-9
    assert r["exhaustive"]["agrees"] and r["oracle"]["agrees"] and r["all_agree"]


@pytest.mark.parametrize("haar, mass", [("probability", 1), ("counting", 6)])
def test_verify_with_no_maps(write, capsys, haar, mass):
    # J = 0: every route returns the total Haar mass of Z2 x Z3
    path = write("empty.json", {"group": {"cyclic": [2, 3]}, "codomains": [],
                                "maps": [], "p": []})
    code, rep = run_cli(capsys, ["verify", "--in", path, "--haar", haar, "--no-cache"])
    assert code == 0
    r = rep["result"]
    assert r["formula"]["value_approx"] == r["oracle"]["value_approx"] == mass
    assert r["exhaustive"]["value"]["approx"] == mass
    assert r["exhaustive"]["argmax_sets"] == []
    assert r["exhaustive"]["agrees"] and r["oracle"]["agrees"] and r["all_agree"] is True


def test_check_codim_infinite(write, capsys):
    path = write("t3.json", T3_LW)
    code, rep = run_cli(capsys, ["check-codim", "--in", path, "--p", "3/2,2,2"])
    assert code == 0
    r = rep["result"]
    assert r["verdict"] == "INFINITE"
    assert r["violator"] == {"simple_part": [], "torus_basis": []}
    assert r["slack"] == "1/3"


def test_check_codim_finite(write, capsys):
    path = write("t3.json", T3_LW)
    code, rep = run_cli(capsys, ["check-codim", "--in", path, "--p", "2,2,2"])
    assert code == 0
    assert rep["result"]["verdict"] == "FINITE"


def test_check_codim_undecided_exit_code(write, capsys):
    # four planes of T^3 in general position: the kernel lattice does not
    # close within the default three rounds, and the pool passes at p = 4
    planes = {
        "simple_dims": [],
        "torus_dim": 3,
        "maps": [{"kept_simple": [], "torus_matrix": [row]}
                 for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])],
    }
    path = write("planes.json", planes)
    code, rep = run_cli(capsys, ["check-codim", "--in", path, "--p", "4,4,4,4"])
    assert code == 4
    assert rep["result"]["verdict"] == "UNDECIDED"


def test_check_codim_has_no_summand_cap(write, capsys):
    # 30 copies of su(2) plus T^1: the summand subsets are never enumerated
    wide = {
        "simple_dims": [3] * 30,
        "torus_dim": 1,
        "maps": [{"kept_simple": list(range(30)), "torus_matrix": [[1]]},
                 {"kept_simple": list(range(0, 30, 2)), "torus_matrix": [[1]]}],
    }
    path = write("wide.json", wide)
    code, rep = run_cli(capsys, ["check-codim", "--in", path, "--p", "2,2"])
    assert code == 0
    assert rep["result"]["verdict"] == "FINITE"


def test_polytope_command(write, capsys):
    path = write("t3.json", T3_LW)
    code, rep = run_cli(capsys, ["polytope", "--in", path])
    assert code == 0
    r = rep["result"]
    assert ["1/2", "1/2", "1/2"] in r["vertices"]
    assert len(r["halfspaces"]) == 7
    assert r["pool_stabilized"] is True


def test_polytope_above_the_vertex_cap_exits_3(write, capsys):
    # nine maps give a polytope in dimension 9, past VERTEX_DIM_CAP = 8
    datum = {"simple_dims": [], "torus_dim": 1,
             "maps": [{"kept_simple": [], "torus_matrix": [[1]]}] * 9}
    code = main(["polytope", "--in", write("nine.json", datum)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "vertex enumeration capped at dimension 8", "kind": "budget"}


def test_polytope_table_keeps_list_items(write, capsys):
    # each vertex is a `-` line over its coordinates, one level deeper
    path = write("t3.json", T3_LW)
    assert main(["polytope", "--in", path, "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    vertices = []
    for line in lines[lines.index("  vertices:") + 1:]:
        if line == "    -":
            vertices.append([])
        elif line.startswith("      - "):
            vertices[-1].append(line[len("      - "):])
        else:
            break
    _, rep = run_cli(capsys, ["polytope", "--in", path])
    assert [len(x) for x in vertices] == [3] * 5
    assert vertices == rep["result"]["vertices"]


def test_check_codim_show_pool_lists_the_closed_pool(write, capsys):
    path = write("t3.json", T3_LW)
    code, rep = run_cli(capsys, ["check-codim", "--in", path, "--p", "2,2,2", "--show-pool"])
    r = rep["result"]
    shown = [IdealSpec(n["simple_part"], [[Fraction(v) for v in row] for row in n["torus_basis"]])
             for n in r["pool"]]
    assert code == 0 and len(shown) == r["pool_size"]
    assert shown == closed_pool(parse_lie_datum(T3_LW))[0]


def test_constant_candidates_cover_the_lattice(write, capsys):
    path = write("lw.json", LW_Z2Z2)
    code, rep = run_cli(capsys, ["constant", "--in", path, "--candidates", "--no-cache"])
    r = rep["result"]
    lattice = all_subgroups(parse_datum(LW_Z2Z2).G)
    assert code == 0
    assert [c["subgroup"] for c in r["candidates"]] == [list(H.members) for H in lattice]
    values = [ExactValue.from_json(c["value"]) for c in r["candidates"]]
    assert exact_max(values)[1] == ExactValue.from_json(r["value"])


def test_constant_reports_the_canonicalization_factor(write, capsys):
    # x -> 2x on Z4 is not onto: the report carries BL(d) / BL(canonicalize(d))
    doubling = {"group": {"cyclic": [4]}, "codomains": [{"cyclic": [4]}],
                "maps": [[0, 2, 0, 2]], "p": ["2"]}
    path = write("doubling.json", doubling)
    code, rep = run_cli(capsys, ["constant", "--in", path, "--no-cache"])
    tag = rep["result"]["canonicalization"]
    assert code == 0 and tag["is_canonical"] is False
    assert tag["witness"] == "map 0 is not surjective"
    assert tag["constant_factor"]["primes"] == {"2": "1/2"}


def test_reduce_roundtrip(write, capsys):
    datum = dict(HOELDER_Z2, p=["1", "inf"])
    path = write("d.json", datum)
    code, rep = run_cli(capsys, ["reduce", "--in", path, "--op", "drop-inf",
                                 "--index", "1"])
    assert code == 0
    out = parse_datum(rep["result"]["datum"])
    assert out.J == 1

    code, rep = run_cli(capsys, ["reduce", "--in", path, "--op", "canonicalize"])
    assert code == 0
    assert rep["result"]["tag"]["is_canonical"] is True


def test_reduce_p1_via_cli(write, capsys):
    lw = dict(LW_Z2Z2, p=["1", "2"], haar={"G": "counting",
                                           "codomains": ["counting", "counting"]})
    path = write("d.json", lw)
    code, rep = run_cli(capsys, ["reduce", "--in", path, "--op", "reduce-p1",
                                 "--index", "0"])
    assert code == 0
    out = parse_datum(rep["result"]["datum"])
    assert out.G.order == 2 and out.J == 1


def test_heisenberg_demo(write, capsys):
    code, rep = run_cli(
        capsys,
        ["heisenberg-demo", "--n", "1", "--alphas", "1,1/2", "--M", "10",
         "--box", "1/2", "--eps", "1/10"],
    )
    assert code == 0
    r = rep["result"]
    assert r["terms"] == 11 and r["lower_bound"] == "11"
    assert len(r["times"]) == 11
    assert any("disjoint" in line for line in r["narrative"])


def test_exit_code_precondition(write, capsys):
    path = write("bad.json", {"group": {"cyclic": [2]}})
    code = main(["constant", "--in", path, "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2
    assert "precondition" in captured.err


def test_exit_code_budget(write, capsys):
    path = write("big.json", dict(LW_Z2Z2, group={"cyclic": [8, 8]}))
    code = main(["constant", "--in", path, "--no-cache", "--order-cap", "16"])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget" in captured.err


def test_short_haar_list_names_all_three_counts(write, capsys):
    # only the codomain Haar list is one short; the message names each count
    short = dict(LW_Z2Z2, haar={"G": "probability", "codomains": ["probability"]})
    message = ("maps, exponents and codomain Haar modes must have equal length, "
               "got 2 maps, 2 exponents and 1 codomain Haar modes")
    with pytest.raises(GroupStructureError) as info:
        parse_datum(short)
    assert str(info.value) == message
    code = main(["constant", "--in", write("short.json", short)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "precondition" and err["error"] == message


@pytest.mark.parametrize("command", [["constant"], ["verify", "--restarts", "2"]],
                         ids=lambda c: c[0])
def test_fallback_listing_takes_the_order_cap(write, capsys, monkeypatch, command):
    # when the kernel lattice passes its bound, `bl_constant` lists every
    # subgroup, under the --order-cap the datum was parsed under
    from blgroups import constant

    listing, caps = constant.all_subgroups, []

    def spy(G, order_cap=DEFAULT_ORDER_CAP):
        caps.append(order_cap)
        return listing(G, order_cap)

    monkeypatch.setattr(constant, "_kernel_lattice", lambda d: None)
    monkeypatch.setattr(constant, "all_subgroups", spy)
    path = write("lw.json", LW_Z2Z2)
    code, rep = run_cli(capsys, [command[0], "--in", path, *command[1:],
                                 "--order-cap", "5000"])
    assert code == 0
    assert caps == [5000]
    formula = rep["result"] if command[0] == "constant" else rep["result"]["formula"]
    assert formula["argmax"] == [0, 1, 2, 3]


@pytest.mark.parametrize("command", [["oracle"], ["reduce", "--op", "canonicalize"]],
                         ids=lambda c: c[-1])
def test_order_cap_bounds_table_specs(write, capsys, command):
    # a Cayley-table group is capped like a cyclic or permutation spec
    z20 = {"order": 20, "table": [[(a + b) % 20 for b in range(20)] for a in range(20)]}
    datum = {"group": z20, "codomains": [{"cyclic": [2]}],
             "maps": [[x % 2 for x in range(20)]], "p": ["2"]}
    path = write("z20.json", datum)
    code = main([command[0], "--in", path, *command[1:], "--order-cap", "8"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err) == {"error": "order 20 exceeds cap 8", "kind": "budget"}


def test_table_order_must_match_its_rows(write, capsys):
    spec = {"order": 20, "table": [[0, 1], [1, 0]]}
    message = "order 20 does not match a table of 2 rows"
    with pytest.raises(SchemaError, match=message):
        parse_group(spec)
    assert parse_group(dict(spec, order=2)).order == 2
    datum = {"group": spec, "codomains": [{"cyclic": [2]}], "maps": [[0, 1]], "p": ["2"]}
    code = main(["constant", "--in", write("order.json", datum), "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {"error": message, "kind": "precondition"}


@pytest.mark.parametrize("error", [SizeCapError, BudgetError, ScanBudgetError],
                         ids=lambda e: e.__name__)
def test_every_budget_error_exits_3(write, capsys, monkeypatch, error):
    # verify reports a BudgetError of the exhaustive search as skipped, so no
    # input sends that one to main; a stubbed ascent raises each in turn
    def over_budget(*args, **kwargs):
        raise error("over budget")

    monkeypatch.setattr("blgroups.oracle.oracle_constant", over_budget)
    code = main(["oracle", "--in", write("lw.json", LW_Z2Z2)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "over budget", "kind": "budget"}


def assert_precondition(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "precondition"


@pytest.mark.parametrize("labels", [[5, 6], [["a"], ["b"]]])
def test_non_string_labels_are_refused(write, capsys, labels):
    obj = {"group": {"table": [[0, 1], [1, 0]], "labels": labels},
           "codomains": [{"cyclic": [1]}], "maps": [[0, 0]], "p": ["2"]}
    with pytest.raises(SchemaError, match=r"^labels\[0\] must be a string$"):
        parse_datum(obj)
    argv = ["reduce", "--op", "canonicalize", "--in", write("labels.json", obj)]
    assert_precondition(capsys, argv)
    obj["group"]["labels"] = ["a", "b"]
    code, rep = run_cli(capsys, argv[:-1] + [write("strings.json", obj)])
    assert code == 0 and rep["result"]["datum"]["group"]["labels"] == ["{a,b}"]


def test_negative_degree_is_refused(write, capsys):
    obj = dict(HOELDER_Z2, group={"degree": -2, "generators": []},
               codomains=[{"cyclic": [1]}], maps=[[0]], p=["2"])
    with pytest.raises(GroupStructureError, match="degree must be at least 0"):
        parse_datum(obj)
    assert_precondition(capsys, ["constant", "--in", write("degree.json", obj)])
    obj["group"]["degree"] = 0
    code, rep = run_cli(capsys, ["constant", "--in", write("zero.json", obj)])
    assert code == 0


def test_permutation_degree_past_the_order_cap_exits_3(write, capsys):
    # refused before a permutation of that degree is built
    cap = DEFAULT_ORDER_CAP
    obj = {"group": {"degree": cap + 1, "generators": []}, "codomains": [], "maps": [],
           "p": []}
    code = main(["constant", "--in", write("degree.json", obj)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {"error": f"degree {cap + 1} exceeds cap {cap}",
                                        "kind": "budget"}
    obj["group"]["degree"] = 9
    path = write("nine.json", obj)
    assert main(["constant", "--in", path, "--order-cap", "8"]) == 3
    capsys.readouterr()
    code, rep = run_cli(capsys, ["constant", "--in", path, "--order-cap", "9"])
    assert code == 0 and rep["result"]["argmax"] == [0]


@pytest.mark.parametrize("op", ["drop-inf", "reduce-p1"])
@pytest.mark.parametrize("index", ["-1", "2", "5"])
def test_reduce_index_out_of_range(write, capsys, op, index):
    # the last exponent is the one each op needs, so index -1 reaches it
    last = "inf" if op == "drop-inf" else "1"
    datum = dict(LW_Z2Z2, p=["2", last], haar={"G": "counting",
                                             "codomains": ["counting", "counting"]})
    path = write("d.json", datum)
    assert_precondition(capsys, ["reduce", "--in", path, "--op", op, "--index", index])


@pytest.mark.parametrize("argv", [
    ["oracle", "--in", "{lw}", "--max-sweeps", "0"],
    ["verify", "--in", "{lw}", "--max-sweeps", "0", "--no-cache"],
    ["check-codim", "--in", "{t3}", "--p", "2,2,2", "--max-closure", "-1"],
    ["polytope", "--in", "{t3}", "--max-closure", "-1"],
])
def test_iteration_counts_below_minimum(write, capsys, argv):
    paths = {"{lw}": write("lw.json", LW_Z2Z2), "{t3}": write("t3.json", T3_LW)}
    assert_precondition(capsys, [paths.get(a, a) for a in argv])


@pytest.mark.parametrize("command", ["oracle", "verify"])
@pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan"])
def test_negative_or_nan_tolerance_is_a_precondition(write, capsys, command, tol):
    argv = [command, "--in", write("lw.json", LW_Z2Z2), f"--tol={tol}"]
    assert_precondition(capsys, argv + (["--no-cache"] if command == "verify" else []))


# Three identity maps of Z4^3 at p = 1001/1000: the power update v^1000 of
# the raw fibre sums underflows the first block to zero in sweep 1, so the
# ascent must divide them by their maximum first.
NEAR_ONE_Z4_CUBED = {
    "group": {"cyclic": [4, 4, 4]},
    "codomains": [{"cyclic": [4, 4, 4]}] * 3,
    "maps": [list(range(64))] * 3,
    "p": ["1001/1000"] * 3,
}


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_degenerate_ascent_exits_numeric(write, capsys, monkeypatch, command):
    monkeypatch.setattr(_Form, "maximizer", lambda self, k, sums: [0.0] * len(sums))
    argv = [command, "--in", write("z4.json", NEAR_ONE_Z4_CUBED), "--no-cache"]
    code = main(argv[:-1] if command == "oracle" else argv)
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "block 0 degenerated during sweep 1",
                                        "kind": "numeric"}


@pytest.mark.parametrize("p", ["1001/1000", "10001/10000", "1000"])
def test_ascent_matches_the_formula_at_extreme_exponents(write, capsys, p):
    path = write("z4.json", dict(NEAR_ONE_Z4_CUBED, p=[p] * 3))
    _, formula = run_cli(capsys, ["constant", "--in", path, "--no-cache"])
    expected = formula["result"]["value_approx"]
    code, rep = run_cli(capsys, ["oracle", "--in", path])
    assert code == 0
    assert rep["result"]["value_approx"] == pytest.approx(expected, rel=1e-9)
    code, rep = run_cli(capsys, ["verify", "--in", path, "--no-cache"])
    assert code == 0 and rep["result"]["all_agree"] is True
    assert rep["result"]["oracle"]["value_approx"] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["constant", "--in", "{bad}", "--no-cache"],
    ["check-codim", "--in", "{t3}", "--p", "1/0,2,2"],
    ["heisenberg-demo", "--M", "1/0"],
])
def test_zero_denominators_are_preconditions(write, capsys, argv):
    paths = {"{bad}": write("bad.json", dict(HOELDER_Z2, p=["1/0", "1"])),
             "{t3}": write("t3.json", T3_LW)}
    assert_precondition(capsys, [paths.get(a, a) for a in argv])


def test_unusable_paths_are_preconditions(write, capsys, tmp_path):
    path = write("lw.json", LW_Z2Z2)
    assert_precondition(capsys, ["constant", "--in", str(tmp_path), "--no-cache"])
    assert_precondition(capsys, ["constant", "--in", str(tmp_path / "none.json")])
    # no command reads the lattice cache, so none needs a usable one
    for argv in (["constant"], ["constant", "--candidates"], ["verify"]):
        code, _ = run_cli(capsys, [*argv, "--in", path, "--cache-dir", path])
        assert code == 0


@pytest.mark.parametrize("command,obj", [
    ("constant", [1, 2, 3]),
    ("constant", T3_LW),
    ("constant", dict(HOELDER_Z2, group={"order": 2, "table": [[0, 1], []]})),
    ("constant", dict(HOELDER_Z2, maps=[[0, 1], [0, 1], [0, 1]])),
    ("check-codim", LW_Z2Z2),
    ("polytope", [T3_LW]),
    ("constant", dict(HOELDER_Z2, p=[float("-inf"), "2"])),  # -Infinity in JSON
])
def test_wrong_input_shapes_are_preconditions(write, capsys, command, obj):
    path = write("bad.json", obj)
    extra = ["--p", "2,2"] if command == "check-codim" else []
    assert_precondition(capsys, [command, "--in", path, *extra])


def _nodes(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for k, v in children:
        yield from _nodes(v, path + (k,))


def _replaced(obj, path, value):
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return obj


TABLE_Z2 = {"order": 2, "table": [[0, 1], [1, 0]], "labels": ["e", "a"]}
SHAPE_CASES = [
    (parse_datum, dict(LW_Z2Z2, codomains=[{"cyclic": [2]}, TABLE_Z2])),
    (parse_datum, {"group": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
                   "codomains": [{"cyclic": [2]}], "maps": [[0, 1, 1, 0, 0, 1]],
                   "p": ["2"]}),
    (parse_lie_datum, dict(T3_LW, simple_dims=[3],
                           maps=[dict(m, kept_simple=[0]) for m in T3_LW["maps"]])),
]


@pytest.mark.parametrize("parse,obj", SHAPE_CASES)
def test_every_wrong_typed_node_is_a_value_error(parse, obj):
    # a node of the wrong JSON type must not escape as TypeError or
    # AttributeError, which main does not map to an exit code
    parse(obj)
    for path in _nodes(obj):
        for value in (None, True, 1, -1, 1.5, "x", [], [1], [[1]], {}, {"a": 1}):
            try:
                parse(_replaced(obj, path, value))
            except (ValueError, KeyError):
                pass


@pytest.mark.parametrize("command", ["check-codim", "polytope"])
@pytest.mark.parametrize("entry", ["Infinity", "-Infinity", "1e400", "NaN"])
def test_non_finite_torus_entries_are_schema_errors(tmp_path, capsys, command, entry):
    # json loads all four as non-finite floats, which are not rationals
    text = ('{"simple_dims": [], "torus_dim": 2, "maps": [{"kept_simple": [], '
            f'"torus_matrix": [[1, 0], [0, {entry}]]}}]}}')
    with pytest.raises(SchemaError, match=r"maps\[0\] torus_matrix\[1\]\[1\] must be a finite"):
        parse_lie_datum(json.loads(text))
    path = tmp_path / "bad.json"
    path.write_text(text)
    extra = ["--p", "2"] if command == "check-codim" else []
    code = main([command, "--in", str(path), *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "precondition"
    assert err["error"].startswith("maps[0] torus_matrix[1][1] must be a finite number")


def test_integer_torus_entries_pass_through_and_rational_ones_agree(
        monkeypatch, write, capsys):
    # an int entry reaches LinearizedMap as given; "3/2" and 1.5 read as 3/2,
    # so the first map is twice [[0, 3, 0], [0, 0, 2]]: the same map, and
    # the same report from each command
    import blgroups.serialize as serialize

    read = []
    rational = serialize._rational
    monkeypatch.setattr(serialize, "_rational", lambda v, what: read.append(v) or rational(v, what))
    d = parse_lie_datum(T3_LW)
    assert read == []
    assert all(type(v) is int for m in d.maps for row in m.torus_matrix for v in row)
    results = []
    for entry in (3, "3/2", 1.5):
        first = [[0, entry, 0], [0, 0, 2 if entry == 3 else 1]]
        obj = dict(T3_LW, maps=[{"kept_simple": [], "torus_matrix": first}, *T3_LW["maps"][1:]])
        read.clear()
        assert parse_lie_datum(obj).maps[0].torus_matrix == ((0, 3, 0), (0, 0, 2))
        assert read == ([] if entry == 3 else [entry])
        path = write("t3.json", obj)
        for argv in (["check-codim", "--p", "3/2,2,2"], ["polytope"]):
            code, rep = run_cli(capsys, [*argv, "--in", path])
            results.append((code, rep["result"]))
    assert results[:2] == results[2:4] == results[4:]


@pytest.mark.parametrize("argv", [["constant"], ["reduce", "--op", "canonicalize"]])
@pytest.mark.parametrize("entry", ["Infinity", "-Infinity", "1e400", "NaN"])
def test_non_finite_numeric_exponents_are_schema_errors(tmp_path, capsys, argv, entry):
    # a number too large for a double is no exponent: the string "inf" is
    text = json.dumps(dict(LW_Z2Z2, p="P")).replace('"P"', f'[{entry}, "11/10"]')
    with pytest.raises(SchemaError, match=r"p\[0\] must be a finite number"):
        parse_datum(json.loads(text))
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main([*argv, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "precondition"
    assert err["error"].startswith("p[0] must be a finite number")
    path.write_text(text.replace(entry, '"inf"'))
    assert main([*argv, "--in", str(path)]) == 0
    capsys.readouterr()


def test_schema_errors_name_the_node():
    with pytest.raises(SchemaError, match="datum must be an object"):
        parse_datum([LW_Z2Z2])
    with pytest.raises(SchemaError, match="group spec must be an object"):
        parse_group([2])
    with pytest.raises(SchemaError, match=r"maps\[0\] must be an object"):
        parse_lie_datum(LW_Z2Z2)
    with pytest.raises(SchemaError, match=r"p\[1\] must be a string or a number"):
        parse_datum(dict(LW_Z2Z2, p=["2", ["2"]]))


# Each subcommand run with every option whose default is None, so that every
# flag it accepts appears in the report; a flag shared through a parent parser
# with the wrong subcommand changes the set.
ENVELOPE = {
    "constant": (["--in", "{lw}", "--haar", "probability", "--candidates",
                  "--cache-dir", "{cache}"],
                 {"format", "input", "haar", "order_cap", "candidates", "cache_dir",
                  "no_cache"}),
    "oracle": (["--in", "{lw}", "--haar", "probability", "--restarts", "1"],
               {"format", "input", "haar", "order_cap", "restarts", "tol",
                "max_sweeps", "seed"}),
    "verify": (["--in", "{lw}", "--haar", "probability", "--restarts", "1",
                "--cache-dir", "{cache}"],
               {"format", "input", "haar", "order_cap", "restarts", "tol",
                "max_sweeps", "seed", "budget", "cache_dir", "no_cache"}),
    "polytope": (["--in", "{t3}"], {"format", "input", "max_closure"}),
    "check-codim": (["--in", "{t3}", "--p", "2,2,2"],
                    {"format", "input", "max_closure", "p", "show_pool"}),
    "reduce": (["--in", "{lw}", "--haar", "probability", "--op", "canonicalize"],
               {"format", "input", "haar", "order_cap", "op", "index"}),
    "heisenberg-demo": ([], {"format", "n", "alphas", "M", "box", "eps", "budget"}),
}
ENVELOPE_KEYS = {"command", "version", "input_digest", "flags", "result", "timing_s"}


@pytest.mark.parametrize("command", sorted(ENVELOPE))
def test_report_envelope(write, capsys, tmp_path, command):
    argv, flags = ENVELOPE[command]
    paths = {"{lw}": write("lw.json", LW_Z2Z2), "{t3}": write("t3.json", T3_LW),
             "{cache}": str(tmp_path / "cache")}
    code, rep = run_cli(capsys, [command, *(paths.get(a, a) for a in argv)])
    assert code == 0
    # no command reads the lattice cache, so no report has a cache block
    assert set(rep) == ENVELOPE_KEYS
    assert set(rep["flags"]) == flags
    assert rep["command"] == command


def test_determinism_and_roundtrip(write, capsys, tmp_path):
    path = write("lw.json", LW_Z2Z2)
    argv = ["constant", "--in", path, "--cache-dir", str(tmp_path / "c")]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0

    def drop_timing(text):
        return "\n".join(
            line for line in text.splitlines() if '"timing_s"' not in line
        )

    # byte-identical apart from the timing field
    assert drop_timing(out1) == drop_timing(out2)
    # the emitted JSON round-trips through parse + re-emit byte-identically
    reparsed = json.dumps(json.loads(out1), sort_keys=True, indent=2)
    assert reparsed == out1.rstrip("\n")


def test_console_entry_point(write, tmp_path, package_env):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(HOELDER_Z2))
    proc = subprocess.run(
        [sys.executable, "-m", "blgroups.cli", "constant", "--in", str(path),
         "--no-cache"],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["result"]["value_approx"] == 2.0


def test_undecided_comparison_reports_values_and_bits(write, capsys, monkeypatch):
    from blgroups.exact import ExactValue

    monkeypatch.setattr(ExactValue, "_log_interval",
                        lambda self, bits: (Decimal(-1), Decimal(1)))
    # 1/p_1 = 1 - 1e-10: the axis {0} x Z2 scores 2^(-1e-10), within the
    # float margin of the whole group's 1, so the two are compared exactly
    near_tie = dict(LW_Z2Z2, p=["10000000000/9999999999", "2"])
    path = write("near_tie.json", near_tie)
    code = main(["verify", "--in", path, "--no-cache"])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["kind"] == "undecided-comparison"
    assert err["bits"] == 4096
    left = ExactValue.from_json(err["left"])
    right = ExactValue.from_json(err["right"])
    assert left != right


def _pair_projections(rank, pairs):
    """Z2^rank onto Z2^2 by each pair of coordinates (0 = leftmost)."""
    def digit(x, c):
        return x >> (rank - 1 - c) & 1
    return {"group": {"cyclic": [2] * rank},
            "codomains": [{"cyclic": [2, 2]} for _ in pairs],
            "maps": [[2 * digit(x, a) + digit(x, b) for x in range(2**rank)]
                     for a, b in pairs]}


def test_no_command_reads_the_lattice_cache(write, capsys, tmp_path):
    # a well-formed entry, count and digest matching, that lists only {e}:
    # taken as the lattice, it would make the constant 2^-1 with argmax {e}
    datum = dict(_pair_projections(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
                 p=["2", "2", "2", "2"])
    path = write("z2_5.json", datum)
    cache_dir = tmp_path / "c"
    cache_dir.mkdir()
    # the file name the retired cache gave an entry: the SHA-256 of the table
    G = parse_datum(datum).G
    key = json.dumps({"order": G.order, "table": [list(r) for r in G.table],
                      "identity": G.identity}, sort_keys=True, separators=(",", ":"))
    entry = cache_dir / f"{hashlib.sha256(key.encode()).hexdigest()}.json"
    only_e = [[0]]
    digest = hashlib.sha256(json.dumps(only_e, separators=(",", ":")).encode()).hexdigest()
    entry.write_text(json.dumps({"format": 2, "order": 32, "count": 1, "digest": digest,
                                 "subgroups": only_e}))
    poisoned = entry.read_text()
    for argv in (["constant"], ["constant", "--candidates"], ["verify"]):
        code, rep = run_cli(capsys, [*argv, "--in", path, "--cache-dir", str(cache_dir)])
        assert code == 0 and "cache" not in rep
        result = rep["result"]["formula"] if argv == ["verify"] else rep["result"]
        assert result["value"]["primes"] == {} and result["argmax"] == [0, 1, 16, 17]
        if "--candidates" in argv:
            assert len(result["candidates"]) == 374
    assert entry.read_text() == poisoned  # neither read nor rewritten


def test_no_command_writes_a_cache_directory(write, capsys, tmp_path, monkeypatch):
    path = write("lw.json", LW_Z2Z2)
    named, from_env = tmp_path / "named", tmp_path / "from_env"
    monkeypatch.setenv("BLGROUPS_CACHE_DIR", str(from_env))
    for argv in (["constant"], ["constant", "--candidates"], ["verify"]):
        for extra in ([], ["--cache-dir", str(named)], ["--no-cache"]):
            code, _ = run_cli(capsys, [*argv, "--in", path, *extra])
            assert code == 0
    assert not named.exists() and not from_env.exists()


# Run in a fresh interpreter: the modules of blgroups that one call loaded.
_LOADED_LAYERS = """
import contextlib, io, json, sys
import blgroups.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = blgroups.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules
                               if m.startswith("blgroups."))]))
"""


@pytest.mark.parametrize("argv, absent", [
    # no command reads the lattice cache, even when named
    (["constant", "--in", "{lw}", "--cache-dir", "{cache}"],
     {"lie", "rational_linalg", "heisenberg", "oracle", "cache"}),
    (["constant", "--in", "{lw}", "--candidates", "--cache-dir", "{cache}"],
     {"lie", "rational_linalg", "heisenberg", "oracle", "cache"}),
    (["verify", "--in", "{lw}", "--cache-dir", "{cache}", "--restarts", "1"],
     {"lie", "rational_linalg", "heisenberg", "cache"}),
    (["oracle", "--in", "{lw}", "--restarts", "1"],
     {"lie", "rational_linalg", "heisenberg", "cache", "constant"}),
    (["reduce", "--in", "{lw}", "--op", "canonicalize"],
     {"lie", "rational_linalg", "heisenberg", "oracle", "cache"}),
    (["check-codim", "--in", "{t3}", "--p", "2,2,2"], {"heisenberg", "oracle", "cache"}),
    (["polytope", "--in", "{t3}"], {"heisenberg", "oracle", "cache"}),
    (["heisenberg-demo"], {"lie", "rational_linalg", "oracle", "cache", "serialize"}),
], ids=["constant", "constant-candidates", "verify", "oracle", "reduce", "check-codim", "polytope",
        "heisenberg-demo"])
def test_subcommand_loads_only_its_layers(write, package_env, tmp_path, argv, absent):
    paths = {"{lw}": write("lw.json", LW_Z2Z2), "{t3}": write("t3.json", T3_LW),
             "{cache}": str(tmp_path / "cache")}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_LAYERS, *(paths.get(a, a) for a in argv)],
        capture_output=True, text=True, env=package_env,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert {"cli", "groups"} <= set(loaded)
    assert not absent & set(loaded)
