"""End-to-end command-line behavior: exit codes, JSON output, determinism."""

import gc
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanhodge import __version__, cli
from fanhodge.cli import build_parser, main
from fanhodge.fixtures import builtin_fixtures


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fixture_files(tmp_path, capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    data = json.loads(out)
    paths = {}
    for name in ("hilbert", "hilbert_cubed", "cstar", "p1xp1"):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data[name]))
        paths[name] = str(p)
    return paths


def test_check_snc_fails_then_passes_after_subdivide(
    fixture_files, tmp_path, capsys
):
    code, out, _ = run(capsys, "check-snc", fixture_files["hilbert"])
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"] and len(payload["violations"]) == 3

    out_path = str(tmp_path / "subdivided.json")
    code, _, _ = run(
        capsys, "subdivide", fixture_files["hilbert"], "-o", out_path
    )
    assert code == 0
    assert "projectivity" in json.loads(open(out_path).read())["note"]
    code, out, _ = run(capsys, "check-snc", out_path)
    assert code == 0 and json.loads(out)["ok"]


def test_homology_command(fixture_files, capsys):
    code, out, _ = run(capsys, "homology", fixture_files["hilbert_cubed"])
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 1]
    assert payload["closed"] and payload["oriented"]
    assert len(payload["fundamental_class"]) == 3


def test_spectral_command(fixture_files, capsys):
    code, out, _ = run(capsys, "spectral", fixture_files["cstar"], "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["graded"] == [{"h": {"1,1": 1}, "weight": 2}]
    code, out, _ = run(capsys, "spectral", fixture_files["p1xp1"], "--k", "2")
    assert json.loads(out)["graded"] == [{"h": {"2,2": 1}, "weight": 4}]


def test_fn_filtration_command(tmp_path, capsys):
    from fanhodge.fans import smooth_subdivide, two_division_subdivide
    from fanhodge.fixtures import hilbert_window
    from fanhodge.weight_ss import (
        CuspStrataAnnotation,
        annotate_from_fans,
        strata_complex_to_dict,
    )

    fs = smooth_subdivide(two_division_subdivide(hilbert_window()))
    sc = annotate_from_fans(fs, CuspStrataAnnotation({"F": 2}))
    p = tmp_path / "strata.json"
    p.write_text(json.dumps(strata_complex_to_dict(sc)))
    code, out, _ = run(capsys, "fn-filtration", str(p))
    assert code == 0
    payload = json.loads(out)
    assert {"m": 2, "dim": 2} in payload["graded"]


def test_stairs_command(capsys):
    code, out, _ = run(capsys, "stairs", "--preset", "sp:2", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["admissible"]) == 8
    code, svg, _ = run(
        capsys, "stairs", "--preset", "sp:2", "--k", "3", "--format", "svg"
    )
    assert code == 0 and svg.startswith("<svg")
    # the shared parser forgets --format: the next call prints JSON again
    assert run(capsys, "stairs", "--preset", "sp:2", "--k", "3") == (0, out, "")


def test_report_command(tmp_path, capsys):
    inv = {"cusps": [{"label": "a", "dim_S_cat": 2, "dim_U": 3}], "dim_M_can": 2}
    p = tmp_path / "inv.json"
    p.write_text(json.dumps(inv))
    code, out, _ = run(capsys, "report", "--preset", "custom:3;3;1",
                       "--inventory", str(p))
    assert code == 0
    assert json.loads(out)["dim_M_can_check"]["consistent"] is True

    bad = dict(inv, dim_GrW_np1_Fn=1, dim_H0K_corank1=2, dim_Hn1=1,
               dim_FnW_np1=1)
    p.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "report", "--preset", "custom:3;3;1",
                       "--inventory", str(p))
    assert code == 1
    assert json.loads(out)["n1_exact_sequence"]["defect"] == 1


def test_report_exits_1_when_dim_M_can_disagrees(tmp_path, capsys):
    inv = {"cusps": [{"label": "a", "dim_S_cat": 2, "dim_U": 3}], "dim_M_can": 5}
    p = tmp_path / "inv.json"
    p.write_text(json.dumps(inv))
    code, out, err = run(capsys, "report", "--preset", "custom:3;3;1",
                         "--inventory", str(p))
    assert (code, err) == (1, "")
    assert json.loads(out)["dim_M_can_check"] == {
        "supplied": 5, "sum_of_graded": 2, "consistent": False}
    assert "n1_exact_sequence" not in json.loads(out)


def test_determinism(fixture_files, tmp_path, capsys):
    _, a, _ = run(capsys, "spectral", fixture_files["p1xp1"], "--k", "2")
    _, b, _ = run(capsys, "spectral", fixture_files["p1xp1"], "--k", "2")
    assert a == b
    _, a, _ = run(capsys, "fixtures")
    _, b, _ = run(capsys, "fixtures")
    assert a == b == json.dumps(builtin_fixtures(), indent=2, sort_keys=True) + "\n"
    files = [tmp_path / "one.json", tmp_path / "two.json"]
    for f in files:
        assert main(["fixtures", "-o", str(f)]) == 0
    assert files[0].read_bytes() == files[1].read_bytes() == a.encode()
    # the text is built once per process, but the library returns fresh dicts
    doc = builtin_fixtures()
    doc["hilbert"]["cones"].clear()
    assert builtin_fixtures() != doc and run(capsys, "fixtures")[1] == a


def test_round_trip_on_emitted_json(fixture_files, tmp_path, capsys):
    from fanhodge.fans import fan_system_from_dict, fan_system_to_dict
    from fanhodge.weight_ss import strata_complex_from_dict, strata_complex_to_dict

    fan = json.loads(open(fixture_files["hilbert"]).read())
    assert fan_system_to_dict(fan_system_from_dict(fan)) == fan
    strata = json.loads(open(fixture_files["p1xp1"]).read())
    assert strata_complex_to_dict(strata_complex_from_dict(strata)) == strata


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(JSON_VALUES)
def test_emitted_text_is_json_dumps_text(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_emitted_int_lists_are_json_dumps_text():
    """Lists and tuples of exact ints take one join; a bool is not an exact
    int, so a list holding one takes the general path and prints true."""
    for value in ([1, -2, 3], (4, 5), [[1, 0], [0, 1]], [-(2**80), 2**80, 0], [[], [[]], [[], 1]],
                  [True, 1], [1, False], (False,), [0, True, -1], {"rays": [[1, 0], (-1, 2)]},
                  {"a": [[[7]], []], "b": (0,)}, [1.0, 2], [2, None], [[1], [True]]):
        assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_emitted_text_falls_back_to_json_dumps():
    for value in ({1: "a", 2: [True]}, {"a": {None: 1.5}}, [float("nan"), -0.0, 2**70]):
        assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._dumps({"a": [Fraction(1, 2)]})


def test_calls_leave_no_cyclic_garbage(fixture_files, tmp_path):
    """Everything a call allocates is freed by reference counting, so
    repeated in-process calls do not drive the cyclic collector."""
    out = str(tmp_path / "out.json")
    calls = [["fixtures"], ["subdivide", fixture_files["hilbert"]],
             ["spectral", fixture_files["p1xp1"], "--k", "2"],
             ["stairs", "--preset", "sp:2", "--k", "3"]]
    for argv in calls:
        main(argv + ["-o", out])
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in calls:
            assert main(argv + ["-o", out]) in (0, 1)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_input_and_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "spectral", str(tmp_path / "nope.json"), "--k", "1")
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check-snc", str(bad))
    assert code == 2
    assert main(["no-such-command"]) == 2
    code, _, err = run(capsys, "stairs", "--preset", "sp:1", "--k", "1")
    assert code == 2


def test_version_flag(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "stairs", "--preset", "sp:2", "--k", "3")[0] == 0
    assert run(capsys, "--version") == (0, __version__ + "\n", "")
    assert run(capsys, "--version") == (0, __version__ + "\n", "")


def test_one_parser_per_process_and_handlers_read_at_call_time(
    fixture_files, monkeypatch, capsys
):
    assert build_parser() is build_parser()
    stairs = ["stairs", "--preset", "sp:2", "--k", "3"]
    check = ["check-snc", fixture_files["hilbert"]]
    assert run(capsys, *stairs)[0] == 0 and run(capsys, *check)[0] == 1
    seen = []
    monkeypatch.setattr(cli, "cmd_stairs", lambda args: seen.append(args.preset) or 5)
    monkeypatch.setattr(cli, "cmd_check_snc", lambda args: seen.append(args.input) or 6)
    assert main(stairs) == 5 and main(check) == 6
    assert seen == ["sp:2", fixture_files["hilbert"]]


def test_cusp_option_does_not_carry_over(tmp_path, capsys):
    p = tmp_path / "two_cusps.json"
    p.write_text(json.dumps(
        {"cusps": [{"name": "F", "rank": 2}, {"name": "G", "rank": 2}],
         "cones": [{"cusp": c, "rays": [[1, 0], [0, 1]]} for c in "FG"]}
    ))
    assert run(capsys, "homology", "--cusp", "F", str(p))[0] == 0
    code, out, err = run(capsys, "homology", str(p))
    assert code == 2 and out == ""
    assert err == "error: several cusps present; pass --cusp\n"


def test_homology_of_a_window_with_no_cusp_exits_2(tmp_path, capsys):
    p = tmp_path / "no_cusp.json"
    p.write_text(json.dumps({"cusps": [], "cones": []}))
    code, out, err = run(capsys, "homology", str(p))
    assert code == 2 and out == ""
    assert err == "error: the window has no cusp\n"


@pytest.mark.parametrize("command", ["subdivide", "check-snc"])
@pytest.mark.parametrize("entry", [1.9, True])
def test_non_integer_ray_exits_2(tmp_path, capsys, command, entry):
    window = {
        "cusps": [{"name": "F", "rank": 2}],
        "cones": [{"cusp": "F", "rays": [[1, 0], [0, 1]]},
                  {"cusp": "F", "rays": [[entry, 0], [0, -1]]}],
    }
    p = tmp_path / "window.json"
    p.write_text(json.dumps(window))
    code, out, err = run(capsys, command, str(p))
    assert code == 2 and out == ""
    assert f"cone 1: ray [{entry!r}, 0]" in err


def test_missing_key_is_named(tmp_path, capsys):
    p = tmp_path / "window.json"
    p.write_text(json.dumps({"cones": []}))
    code, _, err = run(capsys, "check-snc", str(p))
    assert code == 2
    assert err == "error: missing key 'cusps'\n"


@pytest.mark.parametrize("command", ["subdivide", "check-snc"])
@pytest.mark.parametrize(
    "rays, message",
    [([5, [0, 1]], "cones[0].rays[0]: expected a list of ints, got 5"),
     ([[1, 0], "0,1"], "cones[0].rays[1]: expected a list of ints, got '0,1'"),
     (5, "cones[0].rays: expected a list of rays, got 5")],
)
def test_non_list_ray_exits_2(tmp_path, capsys, command, rays, message):
    p = tmp_path / "window.json"
    p.write_text(json.dumps({"cusps": [{"name": "F", "rank": 2}],
                             "cones": [{"cusp": "F", "rays": rays}]}))
    code, out, err = run(capsys, command, str(p))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["spectral", "--k", "0"], ["fn-filtration"]])
@pytest.mark.parametrize(
    "field, value, message",
    [("h", 1.5, "h['0,0']: expected int, got 1.5"),
     ("h", True, "h['0,0']: expected int, got True"),
     ("weight", 0.0, "weight: expected int, got 0.0")],
)
def test_non_integer_hodge_data_exits_2(
    fixture_files, tmp_path, capsys, argv, field, value, message
):
    strata = json.loads(open(fixture_files["p1xp1"]).read())
    assert strata["strata"][0]["id"] == "Y"
    hs = strata["strata"][0]["cohomology"]["0"]
    if field == "h":
        hs["h"]["0,0"] = value
    else:
        hs["weight"] = value
    p = tmp_path / "strata.json"
    p.write_text(json.dumps(strata))
    code, out, err = run(capsys, argv[0], str(p), *argv[1:])
    assert code == 2 and out == ""
    assert err == f"error: strata[0] (id 'Y').cohomology['0'].{message}\n"


def test_spectral_rejects_two_keys_for_one_hodge_number(fixture_files, tmp_path, capsys):
    strata = json.loads(open(fixture_files["p1xp1"]).read())
    strata["strata"][0]["cohomology"]["0"]["h"] = {"0,0": 1, "00,0": 2}
    p, out_path = tmp_path / "strata.json", tmp_path / "e2.json"
    p.write_text(json.dumps(strata))
    code, out, err = run(capsys, "spectral", str(p), "--k", "2", "-o", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err == ("error: strata[0] (id 'Y').cohomology['0'].h: "
                   "keys '0,0' and '00,0' both name (0,0)\n")


def test_spectral_on_a_zero_table_prints_an_empty_table(tmp_path, capsys):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(
        {"n": 1, "components": ["A"],
         "strata": [{"id": "X", "index_set": [],
                     "cohomology": {"0": {"weight": 0, "h": {"0,0": 1}}}}]}
    ))
    code, out, err = run(capsys, "spectral", str(p), "--k", "1")
    assert code == 0 and err == ""
    assert json.loads(out) == {"degree": 1, "graded": []}


def _gysin_strata(entry=1, matrix=None, degree_00=None):
    """Codim-1 point X on the curve Y, with one Gysin block X -> Y; with
    ``degree_00``, X also has a table h^{0,0} = degree_00 under key "00"."""
    strata = {
        "n": 1, "components": ["A"],
        "strata": [
            {"id": "Y", "index_set": [], "cohomology": {"2": {"weight": 2, "h": {"1,1": 1}}}},
            {"id": "X", "index_set": ["A"], "cohomology": {"0": {"weight": 0, "h": {"0,0": 1}}}},
        ],
        "gysin": [{"src": "X", "dst": "Y", "degree": 0, "p": 0, "q": 0,
                   "matrix": [[entry]] if matrix is None else matrix}],
    }
    if degree_00 is not None:
        strata["strata"][1]["cohomology"]["00"] = {"weight": 0, "h": {"0,0": degree_00}}
    return strata


@pytest.mark.parametrize("command", [["fn-filtration"], ["spectral", "--k", "1"]])
@pytest.mark.parametrize(
    "strata, message",
    [({"n": 1, "components": [], "strata": 7}, "strata: expected a list, got 7"),
     ({"n": "2", "components": [], "strata": []}, "n: expected an int, got '2'"),
     ([1], "top level: expected an object, got [1]"),
     ({"n": 1, "components": [], "strata": [5]}, "strata[0]: expected an object, got 5"),
     (_gysin_strata(matrix=5), "gysin[0].matrix: expected a list, got 5"),
     (_gysin_strata(matrix=[[1], [1, 1]]), "gysin[0].matrix[1]: expected 1 entries, got 2"),
     (_gysin_strata(entry=0.1),
      "gysin[0].matrix[0][0]: expected an int or a 'p/q' string, got 0.1"),
     (_gysin_strata(entry=True),
      "gysin[0].matrix[0][0]: expected an int or a 'p/q' string, got True"),
     (_gysin_strata(entry="1/0"),
      "gysin[0].matrix[0][0]: expected an int or a 'p/q' string, got '1/0'"),
     ({"n": 1, "components": [], "strata": [{"index_set": []}]},
      "missing key 'strata[0].id'"),
     # a later block or table used to replace the earlier one
     ({**_gysin_strata(), "gysin": _gysin_strata()["gysin"] + _gysin_strata(entry=0)["gysin"]},
      "gysin[1]: duplicate block 'X'->'Y' deg 0 (0,0)"),
     (_gysin_strata(degree_00=5), "strata[1] (id 'X').cohomology['00']: degree 0 given twice")],
)
def test_malformed_strata_json_names_the_path(tmp_path, capsys, command, strata, message):
    p = tmp_path / "strata.json"
    p.write_text(json.dumps(strata))
    code, out, err = run(capsys, command[0], str(p), *command[1:])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_rational_gysin_entries_are_read_exactly(tmp_path, capsys):
    from fanhodge.weight_ss import strata_complex_from_dict

    sc = strata_complex_from_dict(_gysin_strata(entry="-3/6"))
    (_, block), = sc.gysin
    assert block[0, 0] == Fraction(-1, 2)
    assert type(strata_complex_from_dict(_gysin_strata(entry=2)).gysin[0][1][0, 0]) is int
    p = tmp_path / "strata.json"
    p.write_text(json.dumps(_gysin_strata(entry="-3/6")))
    code, out, _ = run(capsys, "fn-filtration", str(p))
    assert code == 0 and json.loads(out)["graded"] == [{"m": 1, "dim": 0}]


@pytest.mark.parametrize("command", ["check-snc", "homology", "subdivide"])
@pytest.mark.parametrize(
    "window, message",
    [({"cusps": [{"name": "F", "rank": 2}], "cones": 5}, "cones: expected a list, got 5"),
     ({"cusps": [5], "cones": []}, "cusps[0]: expected an object, got 5"),
     ([], "top level: expected an object, got []"),
     ({"cusps": [{"name": "F", "rank": 2}], "cones": [],
       "identifications": [{"matrix": 3, "source": "F", "target": "F"}]},
      "identifications[0].matrix: expected a list, got 3"),
     ({"cusps": [{"name": "F", "rank": "2"}], "cones": [{"cusp": "F", "rays": [[1, 0]]}]},
      "cusps[0].rank: expected an int, got '2'"),
     ({"cusps": [{"name": "F", "rank": -1}], "cones": []},
      "cusp 'F': lattice rank -1 is not a nonnegative int"),
     ({"cusps": [{"name": "F", "rank": 2,
                  "embeddings": [{"parent": "F", "matrix": [[1, 0], [0]]}]}], "cones": []},
      "cusps[0].embeddings[0].matrix[1]: expected 2 entries, got 1"),
     ({"cusps": [{"name": "F", "rank": 2}], "cones": [{"cusp": "F"}]},
      "missing key 'cones[0].rays'"),
     ({"cusps": [{"name": "F", "rank": 2}], "cones": [{"cusp": "F", "rays": [[1]]}]},
      "cone 0: ray length != cusp lattice rank"),
     ({"cusps": [{"name": "F", "rank": 2}], "cones": [{"cusp": "F", "rays": [[1, 0], [-1, 0]]}]},
      "cone 0: dependent rays in cone ((-1, 0), (1, 0)) (simplicial only)"),
     ({"cusps": [{"name": "F", "rank": 3}],
       "cones": [{"cusp": "F", "rays": [[1, 0, 0], [-1, 0, 0]]}]},
      "cone 0: dependent rays in cone ((-1, 0, 0), (1, 0, 0)) (simplicial only)"),
     ({"cusps": [{"name": "F", "rank": 2}], "cones": [{"cusp": "F", "rays": [[2, 0], [0, 1]]}]},
      "cone 0: non-primitive ray (2, 0)"),
     ({"cusps": [{"name": "F", "rank": 2}], "cones": [{"cusp": "F", "rays": [[0, 0], [0, 1]]}]},
      "cone 0: non-primitive ray (0, 0)"),
     ({"cusps": [{"name": "F", "rank": 2}], "cones": [{"cusp": "F", "rays": [[1, 0], [0, 1]]}],
       "identifications": [{"matrix": [[2, 1], [1, 1]], "source": "F", "target": "F"},
                           {"matrix": [[2, 0], [0, 1]], "source": "F", "target": "F"}]},
      "identification 1: not a lattice automorphism"),
     ({"cusps": [{"name": "F", "rank": 2}, {"name": "G", "rank": 3}], "cones": [],
       "identifications": [{"matrix": [[1, 0], [0, 1], [0, 0]], "source": "F", "target": "G"}]},
      "identification 0: not square")],
)
def test_malformed_fan_json_names_the_path(tmp_path, capsys, command, window, message):
    p = tmp_path / "window.json"
    p.write_text(json.dumps(window))
    code, out, err = run(capsys, command, str(p))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "inventory, message",
    [({"cusps": [{"label": "a", "dim_S_cat": "2", "dim_U": 1}]},
      "cusps[0].dim_S_cat: expected an int, got '2'"),
     ([1], "top level: expected an object, got [1]"),
     ({"cusps": 5}, "cusps: expected a list, got 5"),
     ({"cusps": [{"label": "a", "dim_S_cat": 0, "dim_U": 1}, 3]},
      "cusps[1]: expected an object, got 3"),
     ({"cusps": [{"label": "a", "dim_S_cat": 2, "dim_U": 1.0}]},
      "cusps[0].dim_U: expected an int, got 1.0"),
     ({"cusps": [{"label": "a", "dim_S_cat": True, "dim_U": 1}]},
      "cusps[0].dim_S_cat: expected an int, got True"),
     ({"cusps": [{"label": 7, "dim_S_cat": 2, "dim_U": 1}]},
      "cusps[0].label: expected a string, got 7"),
     ({"cusps": [], "dim_Omega_n_minus_1": "1"},
      "dim_Omega_n_minus_1: expected an int, got '1'"),
     ({"cusps": [], "dim_M_can": False}, "dim_M_can: expected an int, got False"),
     ({"cusps": [], "neat": "yes"}, "neat: expected a bool, got 'yes'"),
     ({"cusps": [], "neat": 1}, "neat: expected a bool, got 1"),
     ({"cusps": [{"label": "a", "dim_S_cat": 2}]}, "missing key 'cusps[0].dim_U'"),
     ({"cusps": [{"label": "a", "dim_S_cat": -1, "dim_U": 1}]},
      "cusp 'a': negative dimension count"),
     ({"cusps": [], "dim_Omega_n_minus_1": -2}, "dim_Omega_n_minus_1: negative dimension count"),
     ({"cusps": [], "dim_M_can": -5}, "dim_M_can: negative dimension count")],
)
def test_malformed_inventory_json_names_the_path(tmp_path, capsys, inventory, message):
    p = tmp_path / "inventory.json"
    p.write_text(json.dumps(inventory))
    code, out, err = run(capsys, "report", "--preset", "sp:2", "--inventory", str(p))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
