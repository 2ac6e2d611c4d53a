import json

import pytest

from viscompare.cli import EXIT_OK, EXIT_PARSE, EXIT_PREDICATE, main


def write_scenario(tmp_path, name, scenario):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return str(path)


def grid_spec(half_width=2.0, h=0.05):
    return {"box": {"center": [0.0], "half_width": [half_width]}, "h": h}


def read_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


def test_check_hypotheses_eq13_theorem31(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "eq13", "problem": {"builtin": "eq13", "lambda": 1.0,
                                  "f": {"name": "bracket"}},
    })
    out = tmp_path / "out"
    assert main(["check-hypotheses", scn, "--out", str(out)]) == EXIT_OK
    rep = read_report(out)
    assert rep["verdict"] == "Theorem 3.1 applies"
    assert rep["checks"]["H1_convexity"] is True


def test_check_hypotheses_hje3_falls_back_to_32(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "hje3", "problem": {"builtin": "hje3", "lambda": 1.0, "t": 1.0},
    })
    out = tmp_path / "out"
    assert main(["check-hypotheses", scn, "--out", str(out)]) == EXIT_OK
    assert "Theorem 3.2" in read_report(out)["verdict"]


def test_check_hypotheses_signswitch_theorem41(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "ss", "problem": {"builtin": "signswitch", "lambda": 1.0},
    })
    out = tmp_path / "out"
    assert main(["check-hypotheses", scn, "--out", str(out)]) == EXIT_OK
    assert "Theorem 4.1" in read_report(out)["verdict"]


def test_check_hypotheses_minconvex_and_game(tmp_path):
    for builtin, want in (("minconvex", "Theorem 4.2"), ("game", "Corollary 4.4")):
        scn = write_scenario(tmp_path, f"{builtin}.json", {
            "id": builtin, "problem": {"builtin": builtin},
        })
        out = tmp_path / f"out_{builtin}"
        assert main(["check-hypotheses", scn, "--out", str(out)]) == EXIT_OK
        assert want in read_report(out)["verdict"]


def test_check_hypotheses_system52(tmp_path):
    scn = write_scenario(tmp_path, "sys.json", {
        "id": "sys", "system": {"builtin": "system2", "coupling": "mean", "c": 0.5},
    })
    out = tmp_path / "out"
    assert main(["check-hypotheses", scn, "--out", str(out)]) == EXIT_OK
    assert "Theorem 5.2" in read_report(out)["verdict"]


def test_check_hypotheses_failure_names_predicate(tmp_path, capsys):
    # f = -x^4 dives below every order-2 class
    scn = write_scenario(tmp_path, "bad.json", {
        "id": "bad", "problem": {"builtin": "eq13", "lambda": 1.0,
                                 "f": {"poly": {"4": -1.0}}},
    })
    assert main(["check-hypotheses", scn, "--out", str(tmp_path / "o")]) == EXIT_PREDICATE
    err = capsys.readouterr().err
    assert err.count("FAILED:") == 1
    assert "SG_{q'}" in err


def test_bad_coupling_system_fails(tmp_path, capsys):
    scn = write_scenario(tmp_path, "sys.json", {
        "id": "sys", "system": {"builtin": "system2", "coupling": "minus2lam"},
    })
    assert main(["check-hypotheses", scn, "--out", str(tmp_path / "o")]) == EXIT_PREDICATE
    assert "(M)" in capsys.readouterr().err


def test_classify_growth_report(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "ex2", "problem": {"builtin": "ex2"},
    })
    out = tmp_path / "out"
    assert main(["classify-growth", scn, "--out", str(out)]) == EXIT_OK
    rep = read_report(out)
    assert rep["sigma0_order_1"]["in_SG_plus"] is True
    assert rep["sigma0_order_1"]["in_S_minus"] is False


def test_verify_classical_eq12(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "eq12", "problem": {"builtin": "eq12", "lambda": 1.0},
    })
    out = tmp_path / "out"
    assert main(["verify-classical", scn, "--out", str(out)]) == EXIT_OK
    rep = read_report(out)
    assert rep["max_abs_residual"] <= 1e-10
    assert {c["label"] for c in rep["candidates"]} == {"u1", "u2"}
    assert (out / "residual_u2.csv").exists()


def test_barrier_strict_and_relaxed(tmp_path):
    strict = write_scenario(tmp_path, "strict.json", {
        "id": "eq13", "problem": {"builtin": "eq13", "lambda": 1.0},
        "window": [10.0, 100.0, 1000.0], "mu": [0.9],
    })
    out = tmp_path / "out_s"
    assert main(["barrier", strict, "--out", str(out)]) == EXIT_OK
    rep = read_report(out)
    assert rep["per_mu"][0]["mode"] == "strict"
    assert rep["per_mu"][0]["params"]["alpha"] == pytest.approx(1 / 32)
    assert rep["per_mu"][0]["strictness"]["passed"] is True

    relaxed = write_scenario(tmp_path, "relaxed.json", {
        "id": "hje3", "problem": {"builtin": "hje3", "lambda": 1.0, "t": 1.0},
        "window": [10.0, 100.0, 1000.0], "mu": [0.9],
    })
    out2 = tmp_path / "out_r"
    assert main(["barrier", relaxed, "--out", str(out2)]) == EXIT_OK
    rep2 = read_report(out2)
    assert rep2["per_mu"][0]["mode"] == "relaxed"
    assert rep2["per_mu"][0]["lambda0"]["lambda0"] == pytest.approx(4.0)


def test_solve_and_outputs(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "eq12", "problem": {"builtin": "eq12", "lambda": 1.0},
        "grid": grid_spec(5.0, 0.05), "boundary": {"trace": "u2"},
    })
    out = tmp_path / "out"
    assert main(["solve", scn, "--out", str(out)]) == EXIT_OK
    assert (out / "field_solution.csv").exists()
    lines = (out / "field_solution.csv").read_text().splitlines()
    assert lines[0] == "x0,value"
    assert len(lines) == 202  # 201 nodes + header


def test_compare_subcommand(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "cmp", "problem": {"builtin": "eq13", "lambda": 1.0},
        "grid": grid_spec(2.0, 0.05),
        "f_low": {"name": "zero"}, "f_high": {"name": "one"},
        "boundary_low": 0.0, "boundary_high": 1.0,
    })
    out = tmp_path / "out"
    assert main(["compare", scn, "--out", str(out)]) == EXIT_OK
    rep = read_report(out)
    assert rep["ordered"] is True


def test_gamma_pin_subcommand(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "pin", "problem": {"builtin": "signswitch", "lambda": 1.0},
        "grid": grid_spec(1.0, 0.05),
    })
    out = tmp_path / "out"
    assert main(["gamma-pin", scn, "--out", str(out)]) == EXIT_OK
    rep = read_report(out)
    assert rep["decreasing"] is True
    assert rep["deviations"][-1] <= 0.05


def test_nonuniqueness_subcommand(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "ex2", "problem": {"builtin": "ex2"}, "grid": grid_spec(5.0, 0.05),
    })
    out = tmp_path / "out"
    assert main(["nonuniqueness", scn, "--out", str(out)]) == EXIT_OK
    rep = read_report(out)
    flags = {b["label"]: b["in_uniqueness_class"] for b in rep["branches"]}
    assert flags == {"v1": True, "v2": False}
    assert (out / "field_v2.csv").exists()


def test_system_solve_subcommand(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "sys", "system": {"builtin": "system2", "coupling": "mean", "c": 0.5},
        "grid": grid_spec(2.0, 0.1),
    })
    out = tmp_path / "out"
    assert main(["system-solve", scn, "--out", str(out)]) == EXIT_OK
    assert (out / "field_component_0.csv").exists()
    assert (out / "field_component_1.csv").exists()


def test_custom_problem_with_polynomial_tables(tmp_path):
    # custom sign-switching problem from coefficient tables: a(x) = x^3
    scn = write_scenario(tmp_path, "s.json", {
        "id": "custom", "problem": {
            "N": 1, "lambda": 1.0, "q": 2.0,
            "sigma": [[0.0]], "b": [0.0],
            "hamiltonian": {"type": "signed", "a": {"poly": {"3": 1.0}}},
            "f": 1.0,
        },
        "grid": grid_spec(1.0, 0.05),
    })
    out = tmp_path / "out"
    assert main(["check-hypotheses", scn, "--out", str(out)]) == EXIT_OK
    assert "Theorem 4.1" in read_report(out)["verdict"]
    out2 = tmp_path / "out2"
    assert main(["gamma-pin", scn, "--out", str(out2)]) == EXIT_OK


def test_custom_problem_power_table(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "custom-power", "problem": {
            "N": 1, "lambda": 1.0, "q": 2.0, "C0": 1.0,
            "sigma": [[1.0]], "b": [0.0],
            "hamiltonian": {"type": "power", "A": [[1.0]]},
            "f": {"poly": {"0": 0.5, "2": 0.25}},
        },
    })
    out = tmp_path / "out"
    assert main(["check-hypotheses", scn, "--out", str(out)]) == EXIT_OK
    assert "Theorem 3.1" in read_report(out)["verdict"]


def test_parse_error_missing_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_PARSE
    assert "PARSE_ERROR" in capsys.readouterr().err


def test_parse_error_bad_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["solve", str(p)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "PARSE_ERROR" in err and "line" in err


def test_parse_error_bad_field_table(tmp_path, capsys):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "bad", "problem": {"builtin": "eq13", "f": {"poly": {"0,1": 1.0}}},
    })
    assert main(["check-hypotheses", scn, "--out", str(tmp_path / "o")]) == EXIT_PARSE


def test_deterministic_reports(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "eq12", "problem": {"builtin": "eq12", "lambda": 1.0},
        "grid": grid_spec(5.0, 0.05), "boundary": {"trace": "u2"},
    })
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", scn, "--out", str(out1)]) == EXIT_OK
    assert main(["solve", scn, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "field_solution.csv").read_bytes() == (out2 / "field_solution.csv").read_bytes()


def test_mu_flag_overrides(tmp_path):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "eq13", "problem": {"builtin": "eq13", "lambda": 1.0},
        "window": [10.0, 100.0], "mu": [0.5, 0.9, 0.99],
    })
    out = tmp_path / "out"
    assert main(["barrier", scn, "--out", str(out), "--mu", "0.7"]) == EXIT_OK
    rep = read_report(out)
    assert len(rep["per_mu"]) == 1
    assert rep["per_mu"][0]["mu"] == pytest.approx(0.7)


def test_solver_refusal_exit_code(tmp_path, capsys):
    from viscompare.cli import EXIT_SOLVER

    # gamma-pin on a problem without a signed Hamiltonian is a refusal
    scn = write_scenario(tmp_path, "s.json", {
        "id": "notsigned", "problem": {"builtin": "eq13", "lambda": 1.0},
        "grid": grid_spec(1.0, 0.1),
    })
    assert main(["gamma-pin", scn, "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    assert "SOLVER:" in capsys.readouterr().err


def test_check_hypotheses_2d_signed_single_gamma_point(tmp_path):
    # a = x1^3 vanishes on the x1 = 0 axis; the 2-d probe meets it at the
    # origin only, so Gamma is a single 2-d point
    scn = write_scenario(tmp_path, "s.json", {
        "id": "signed2d", "problem": {
            "N": 2, "lambda": 1.0, "q": 2.0,
            "sigma": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0],
            "hamiltonian": {"type": "signed", "a": {"poly": {"3,0": 1.0}}},
            "f": 0.0,
        },
    })
    out = tmp_path / "out"
    assert main(["check-hypotheses", scn, "--out", str(out)]) == EXIT_OK
    rep = read_report(out)
    assert rep["verdict"] == "Theorem 4.1 applies"
    assert rep["checks"]["A4"] is True


def test_builtin_example1_missing_sigma_is_parse_error(tmp_path, capsys):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "ex1", "problem": {"builtin": "example1", "b": [0.0], "A": [[1.0]]},
    })
    assert main(["check-hypotheses", scn, "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert capsys.readouterr().err.strip() == "PARSE_ERROR: problem spec missing field 'sigma'"


def test_system_solve_trace_boundary_is_parse_error(tmp_path, capsys):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "sys", "system": {"builtin": "system2"}, "grid": grid_spec(2.0, 0.1),
        "boundaries": [{"trace": "u1"}, 0.0],
    })
    assert main(["system-solve", scn, "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("PARSE_ERROR: a trace boundary needs")


@pytest.mark.parametrize("cmd, scenario, key", [
    ("solve", {"problem": {"builtin": "eq13", "lambda": "one"}, "grid": grid_spec()}, "lambda"),
    ("check-hypotheses", {"problem": {"builtin": "eq13", "lambda": "one"}}, "lambda"),
    ("check-hypotheses", {"problem": {"builtin": "eq13", "N": "two"}}, "N"),
    ("check-hypotheses", {"problem": {"builtin": "eq13", "q": None}}, "q"),
    ("check-hypotheses", {"problem": {"N": 1, "lambda": 1.0, "sigma": [[1.0]], "b": [0.0],
                                      "hamiltonian": {"type": "power", "A": [[1.0]]},
                                      "C0": "big"}}, "C0"),
    ("solve", {"problem": {"builtin": "eq13"}, "grid": {**grid_spec(), "h": "x"}}, "h"),
    ("solve", {"problem": {"builtin": "eq13"},
               "grid": {"box": {"center": ["x"], "half_width": [1.0]}, "h": 0.1}}, "center"),
    ("solve", {"problem": {"builtin": "eq13"}, "grid": grid_spec(),
               "boundary": {"value": "x"}}, "value"),
    ("verify-classical", {"problem": {"builtin": "hje3", "t": "one"}}, "t"),
    ("nonuniqueness", {"problem": {"builtin": "eq12", "lambda": [1]}, "grid": grid_spec()},
     "lambda"),
    ("system-solve", {"system": {"builtin": "system2", "c": "half"}, "grid": grid_spec()}, "c"),
    ("barrier", {"problem": {"builtin": "eq13"}, "mu": ["x"]}, "mu"),
    ("barrier", {"problem": {"builtin": "eq13"}, "window": ["x"]}, "window"),
    ("classify-growth", {"problem": {"builtin": "eq13"}, "window": ["x"]}, "window"),
    ("check-hypotheses", {"problem": {"builtin": "eq13"}, "window": [10.0, None]}, "window"),
])
def test_malformed_scenario_number_is_parse_error_naming_the_key(tmp_path, capsys, cmd,
                                                                 scenario, key):
    scn = write_scenario(tmp_path, "s.json", {"id": "bad", **scenario})
    assert main([cmd, scn, "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"PARSE_ERROR: {key!r} must be a number")


@pytest.mark.parametrize("grid, key", [
    ({"box": {"center": [0.0], "half_width": [1.0]}}, "h"),
    ({"h": 0.1}, "box"),
    ({"box": {"center": [0.0]}, "h": 0.1}, "half_width"),
])
def test_grid_missing_key_is_parse_error_naming_it(tmp_path, capsys, grid, key):
    scn = write_scenario(tmp_path, "s.json", {"id": "bad", "problem": {"builtin": "eq13"},
                                              "grid": grid})
    assert main(["solve", scn, "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert capsys.readouterr().err == f"PARSE_ERROR: grid spec missing field {key!r}\n"


def test_barrier_mu_list_that_is_not_a_list_is_parse_error(tmp_path, capsys):
    scn = write_scenario(tmp_path, "s.json", {"id": "bad", "problem": {"builtin": "eq13"},
                                              "mu": 0.5})
    assert main(["barrier", scn, "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("PARSE_ERROR: 'mu' must be a list of numbers")


@pytest.mark.parametrize("cmd, key", [
    ("check-hypotheses", "problem"),
    ("classify-growth", "problem"),
    ("barrier", "problem"),
    ("verify-classical", "problem"),
    ("solve", "problem"),
    ("compare", "problem"),
    ("compare", "f_low"),
    ("compare", "f_high"),
    ("gamma-pin", "problem"),
    ("nonuniqueness", "problem"),
    ("system-solve", "system"),
])
def test_scenario_missing_top_level_key_is_parse_error(tmp_path, capsys, cmd, key):
    scenario = {"problem": {"builtin": "eq13"}, "system": {"builtin": "system2"},
                "grid": grid_spec(1.0, 0.1), "f_low": 0.0, "f_high": 1.0}
    if cmd == "check-hypotheses":
        del scenario["system"]  # a system scenario needs no problem
    del scenario[key]
    scn = write_scenario(tmp_path, "s.json", {"id": "bad", **scenario})
    assert main([cmd, scn, "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert capsys.readouterr().err == f"PARSE_ERROR: scenario missing field {key!r}\n"


@pytest.mark.parametrize("boundaries", [[0.0], [0.0, 0.1, 0.2]], ids=["one", "three"])
def test_system_solve_boundaries_need_one_entry_per_component(tmp_path, capsys, boundaries):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "sys", "system": {"builtin": "system2"}, "grid": grid_spec(2.0, 0.1),
        "boundaries": boundaries,
    })
    assert main(["system-solve", scn, "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("PARSE_ERROR: 'boundaries' must list 2 entries")


def test_gamma_pin_refuses_2d_problem(tmp_path, capsys):
    from viscompare.cli import EXIT_SOLVER

    scn = write_scenario(tmp_path, "s.json", {
        "id": "signed2d", "problem": {
            "N": 2, "lambda": 1.0, "q": 2.0,
            "sigma": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0],
            "hamiltonian": {"type": "signed", "a": {"poly": {"3,0": 1.0}}},
        },
        "grid": {"box": {"center": [0.0, 0.0], "half_width": [1.0, 1.0]}, "h": 0.25},
    })
    assert main(["gamma-pin", scn, "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    assert capsys.readouterr().err == (
        "SOLVER: gamma pinning is 1-d; got a problem of dimension 2\n")


@pytest.mark.parametrize("flags, iterations, tol", [
    (["--tol", "1e-6"], 17, 1e-6),
    ([], 27, 1e-9),
])
def test_tol_flag_sets_the_solve_stopping_residual(tmp_path, flags, iterations, tol):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "tol", "problem": {"builtin": "eq13", "lambda": 1.0},
        "grid": grid_spec(2.0, 0.1), "boundary": 0.3,
    })
    out = tmp_path / "out"
    assert main(["solve", scn, "--out", str(out), *flags]) == EXIT_OK
    rep = read_report(out)["solve"]
    assert rep["converged"] and rep["iterations"] == iterations
    assert rep["final_residual_norm"] <= tol


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_tol_flag_must_be_finite_and_positive(tmp_path, capsys, value):
    scn = write_scenario(tmp_path, "s.json", {
        "id": "tol", "problem": {"builtin": "eq13", "lambda": 1.0},
        "grid": grid_spec(2.0, 0.1), "boundary": 0.3,
    })
    assert main(["solve", scn, "--out", str(tmp_path / "out"), "--tol", value]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("PARSE_ERROR: --tol must be a finite number > 0")
    assert not (tmp_path / "out").exists()
