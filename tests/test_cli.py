"""Problem-file parsing, the five subcommands, exit codes, report stability."""

import json
from pathlib import Path

import numpy as np
import pytest

from wdesign.linalg import SymMatrix
from wdesign.cli import (
    CERT_KINDS,
    EXIT_CERT_FAIL,
    EXIT_INPUT,
    EXIT_OK,
    _round12,
    load_problem,
    main,
)

BALANCED = {
    "model": {"v": 3, "n": 6, "replications": [2, 2, 2], "nuisance": "intercept"},
    "estimation_space": {"kind": "contrasts"},
    "system": {"generator": "vs_control", "k": 2},
    "criterion": {"name": "A"},
    "search": {"seed": 7, "restarts": 10, "max_passes": 50},
}

GOLDEN_PROBLEMS = Path(__file__).resolve().parent / "golden" / "problems"


def write(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_one_error_line(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_report_rounding_keeps_each_leaf_type():
    rounded = _round12({"int": 3, "bool": True, "np_bool": np.bool_(False),
                        "np_int": np.int64(-4), "float": 1 / 3, "rows": np.array([[1, 2]]),
                        "nested": [(7, None, "text")]})
    assert rounded == {"int": 3, "bool": True, "np_bool": False, "np_int": -4,
                       "float": 0.333333333333, "rows": [[1, 2]],
                       "nested": [[7, None, "text"]]}
    assert [type(rounded[key]) for key in ("int", "bool", "np_bool", "np_int")] == \
        [int, bool, bool, int]


class TestParsing:
    def test_generators(self, tmp_path):
        payload = dict(BALANCED, system={"generator": "pairwise"})
        problem, _ = load_problem(write(tmp_path, payload))
        assert problem.system.s == 3
        payload = dict(BALANCED, system={"generator": "single", "q": [0, -1, 1],
                                         "normalize": True})
        problem, _ = load_problem(write(tmp_path, payload))
        assert np.linalg.norm(problem.system.Q[:, 0]) == pytest.approx(1.0)

    def test_vs_control_matches_hand_built(self, tmp_path):
        problem, _ = load_problem(write(tmp_path, BALANCED))
        expected = np.array([[-1, -1], [1, 0], [0, 1]]) / np.sqrt(2)
        np.testing.assert_allclose(problem.system.Q, expected)

    def test_diagnostics_carry_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "model": [1,]\n}')
        with pytest.raises(Exception, match=r"broken\.json:2"):
            load_problem(str(path))

    def test_inconsistent_n_rejected(self, tmp_path):
        payload = dict(BALANCED, model={"v": 3, "n": 5, "replications": [2, 2, 2]})
        with pytest.raises(Exception, match="n=5"):
            load_problem(write(tmp_path, payload))


class TestExitCodes:
    def test_missing_model_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, {"criterion": {"name": "A"}})
        assert main(["info", "--file", path]) == EXIT_INPUT
        assert "model" in capsys.readouterr().err

    def test_not_psd_weight_is_input_error(self, tmp_path, capsys):
        payload = {"model": {"v": 2, "replications": [1, 1]},
                   "weight_matrix": {"W": [[1, 0], [0, -1]]}}
        assert main(["certify", "--file", write(tmp_path, payload), "--which",
                     "theorem2", "--trials", "1"]) == EXIT_INPUT
        assert "nonnegative definite" in capsys.readouterr().err

    def test_singular_weight_for_theorem2_points_to_theorem4(self, tmp_path, capsys):
        w = (np.eye(3) - np.ones((3, 3)) / 3).tolist()
        payload = {"model": {"v": 3, "replications": [2, 2, 2]},
                   "weight_matrix": {"W": w}}
        assert main(["certify", "--file", write(tmp_path, payload), "--which",
                     "theorem2", "--trials", "1"]) == EXIT_INPUT
        assert "theorem4" in capsys.readouterr().err

    def test_certification_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        from wdesign import cli as cli_module
        from wdesign.criteria import CertificationReport

        def failing(kind, sequence, trials):
            return [CertificationReport(kind, False, 1.0, 1e-8,
                                        np.array([1.0]), np.array([2.0]))] * trials

        monkeypatch.setattr(cli_module, "_random_certifications", failing)
        path = write(tmp_path, BALANCED)
        assert main(["certify", "--file", path, "--which", "theorem3",
                     "--trials", "2"]) == EXIT_CERT_FAIL
        out = capsys.readouterr().out
        assert "FAILURES" in out and "seed" in out


    def test_a_failed_argmax_check_exits_one_with_a_failed_report(self, tmp_path,
                                                                monkeypatch, capsys):
        from wdesign import search
        from wdesign.search import ArgmaxEquivalenceReport

        monkeypatch.setattr(search, "argmax_equivalence_check",
                            lambda problem: ArgmaxEquivalenceReport(False, 1.0, 2.0, (), ()))
        out = tmp_path / "report.json"
        assert main(["search", "--file", write(tmp_path, BALANCED), "--both-routes",
                     "--out", str(out)]) == EXIT_CERT_FAIL
        assert "argmax equivalence of the two routes: FAIL" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["pass"] is False and report["command"] == "search"

    def test_negative_trials_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, BALANCED)
        assert main(["certify", "--file", path, "--trials", "-1"]) == EXIT_INPUT
        assert "--trials" in capsys.readouterr().err
        out = tmp_path / "report.json"
        assert main(["certify", "--file", path, "--trials", "0", "--out", str(out)]) == EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert results["theorem3"] == {"trials": 0, "passed": True, "max_deviation": 0.0,
                                       "failures": []}


    @pytest.mark.parametrize("section, value", [
        ("search", 5),
        ("search", {"restarts": None}),
        ("search", {"seed": [1]}),
        ("search", {"max_passes": float("inf")}),
        ("criterion", 5),
        ("system", 5),
        ("system", {"generator": "vs_control", "k": None}),
        ("system", {"generator": "pairwise", "b": None}),
        ("weight_matrix", 5),
        ("weight_matrix", {"W": {"a": 1}}),
        ("estimation_space", 5),
        ("model", {"v": 3, "replications": None}),
        ("model", {"v": None, "replications": [2, 2, 2]}),
        ("model", {"v": 3, "assignment": [1, 2, 3], "nuisance": {"kind": "blocks",
                                                                 "sizes": None}}),
        ("system", {"generator": "pairwise", "normalize": "false"}),
        ("model", {"v": 3, "replications": [3, -1, 3]}),
        ("estimation_space", {"kind": "explicit"}),
        ("estimation_space", {"kind": "explicit", "basis": [[1, 0], [0, 1]]}),
        ("estimation_space", {"kind": "explicit", "basis": [[1, 0], [-1, 0], [0, 0]]}),
        ("estimation_space", {"kind": "explicit", "basis": [[1, 0], [-1]]}),
        ("estimation_space", {"kind": "rows"}),
        ("system", {"Q": [[1, 0], [-1]]}),
        ("system", {"Q": [[[1]], [[-1]], [[0]]]}),
        ("model", {"v": 3, "replications": [2, 2, 2], "nuisance": 5}),
        ("model", {"v": 3, "replications": [2, 2, 2], "nuisance": {"sizes": [3, 3]}}),
        ("model", {"v": 3}),
        ("system", {"generator": "contrasts"}),
        ("system", {"generator": "single"}),
        ("system", {"generator": "vs_control", "k": 3}),
        ("system", {"generator": "vs_control", "k": 0}),
        ("system", {"Q": [[1], [-1]]}),
        ("system", {"Q": [[1, 0], [-1, 0], [0, 0]], "normalize": True}),
        ("system", {"generator": "pairwise", "b": [1, 0, 1]}),
        ("system", {"generator": "pairwise", "b": [1, 1]}),
        ("weight_matrix", {}),
        ("weight_matrix", {"W": [[1, -1], [-1, 1]]}),
        ("weight_matrix", {"W": [[2, -1, -1], [-1, 2, -1], [-1, -1.5, 2]]}),
        ("criterion", {"name": "T"}),
        ("criterion", {}),
        # a count far past the limit is rejected before its assignment is built
        ("model", {"v": 4, "replications": [3, 2, 2, 2**70]}),
        ("model", {"v": 4, "n": 9, "replications": [3, 2, 2, 2**70]}),
        ("model", {"v": 4, "replications": [3, 2, 2, 2**70],
                   "nuisance": {"kind": "blocks", "sizes": [3, 3, 3]}}),
        ("model", {"v": 4, "n": 9, "replications": [3, 2, 2, 2**70],
                   "nuisance": {"kind": "blocks", "sizes": [3, 3, 3]}}),
        ("model", {"v": 4, "replications": [3, 2, 2, 2**70],
                   "nuisance": {"kind": "explicit", "L": [[1]] * 9}}),
        ("model", {"v": 4, "n": 9, "replications": [3, 2, 2, 2**70],
                   "nuisance": {"kind": "explicit", "L": [[1]] * 9}}),
        ("model", {"v": 1000000, "assignment": [1, 2, 3, 4]}),
    ])
    @pytest.mark.parametrize("command", ["info", "search"])
    def test_malformed_sections_are_input_errors(self, tmp_path, capsys, command, section,
                                                 value):
        path = write(tmp_path, dict(BALANCED, **{section: value}))
        out = tmp_path / "report.json"
        assert main([command, "--file", path, "--out", str(out)]) == EXIT_INPUT
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("args, content", [
        (["info"], [BALANCED]),
        (["info"], None),
        (["info"], b'{"model": "\xff"}'),
        (["criterion"], {k: v for k, v in BALANCED.items() if k != "system"}),
        (["criterion"], {k: v for k, v in BALANCED.items() if k != "criterion"}),
        (["criterion"], dict(BALANCED, weight_matrix={"W": np.eye(3).tolist()})),
        (["criterion"], dict({k: v for k, v in BALANCED.items() if k != "system"},
                             weight_matrix={"W": np.eye(3).tolist()})),
        (["search"], dict({k: v for k, v in BALANCED.items() if k != "system"},
                          weight_matrix={"W": np.eye(3).tolist()})),
        (["search"], {k: v for k, v in BALANCED.items() if k != "criterion"}),
        (["weights", "--query", "1,one,0"], BALANCED),
        (["weights", "--query", "1,-1"], BALANCED),
    ])
    def test_unusable_files_and_targets_are_input_errors(self, tmp_path, capsys, args,
                                                         content):
        # content: a JSON document, raw bytes, or None for no file
        path = tmp_path / "problem.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(json.dumps(content))
        out = tmp_path / "report.json"
        assert main([args[0], "--file", str(path), "--out", str(out), *args[1:]]) == EXIT_INPUT
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("section, value", [
        ("model", {"v": 3.9, "replications": [2, 2, 2]}),
        ("model", {"v": 3, "replications": [2, True, 2]}),
        ("model", {"v": 3, "n": 6.5, "replications": [2, 2, 2]}),
        ("model", {"v": 3, "replications": [2, 2.5, 2]}),
        ("model", {"v": 3, "assignment": [1, 2, 3, 1, 2, 3.5]}),
        ("model", {"v": 3, "assignment": [1, 2, 3, 1, 2, 3],
                   "nuisance": {"kind": "blocks", "sizes": [3, 3.0001]}}),
        ("system", {"generator": "vs_control", "k": 1.5}),
        ("system", {"generator": "vs_control", "k": 2, "b": [1.0, True]}),
        ("search", {"restarts": 1.5}),
        ("search", {"seed": 0.5}),
        ("search", {"max_passes": True}),
    ])
    def test_fractional_and_boolean_counts_are_input_errors(self, tmp_path, capsys, section,
                                                            value):
        path = write(tmp_path, dict(BALANCED, **{section: value}))
        assert main(["search", "--file", path]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_integral_float_counts_are_counts(self, tmp_path, capsys):
        assert main(["search", "--file", write(tmp_path, BALANCED)]) == EXIT_OK
        expected = capsys.readouterr().out
        payload = dict(BALANCED,
                       model={"v": 3.0, "n": 6.0, "replications": [2.0, 2, 2]},
                       system={"generator": "vs_control", "k": 2.0},
                       search={"seed": 7.0, "restarts": 10.0, "max_passes": 50.0})
        assert main(["search", "--file", write(tmp_path, payload)]) == EXIT_OK
        assert capsys.readouterr().out == expected


class TestInfo:
    def test_balanced_fixture(self, tmp_path, capsys):
        path = write(tmp_path, BALANCED)
        assert main(["info", "--file", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "rank: 2" in out
        assert "feasible=True" in out

    def test_explicit_l_goes_through_projector(self, tmp_path, capsys):
        payload = {
            "model": {"v": 2, "assignment": [1, 2, 1, 2],
                      "nuisance": {"kind": "explicit", "L": [[1], [1], [1], [1]]}},
            "estimation_space": {"kind": "contrasts"},
        }
        assert main(["info", "--file", write(tmp_path, payload)]) == EXIT_OK
        assert "rank: 1" in capsys.readouterr().out

    def test_explicit_estimation_space_basis(self, tmp_path, capsys):
        # two contrasts of three treatments span the contrasts space
        payload = dict(BALANCED, estimation_space={"kind": "explicit",
                                                   "basis": [[1, 0], [-1, 1], [0, -1]]})
        out = tmp_path / "report.json"
        assert main(["info", "--file", write(tmp_path, payload), "--out", str(out)]) == EXIT_OK
        assert "estimation space: explicit (dim 2)" in capsys.readouterr().out
        system = json.loads(out.read_text())["results"]["system"]
        assert system["feasible"] and system["in_estimation_space"]


class TestCriterion:
    def test_both_routes_agree(self, tmp_path, capsys):
        path = write(tmp_path, BALANCED)
        assert main(["criterion", "--file", path, "--out", str(tmp_path / "r.json")]) == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        results = report["results"]
        assert abs(results["route_system"]["value"] - results["route_weighted"]["value"]) <= 1e-9
        assert results["deviation"] <= 1e-9

    def test_route_deviation_does_not_depend_on_the_scale_of_the_weights(self, tmp_path,
                                                                         monkeypatch):
        # the weighted route is made 1e-6 larger than the system route, so
        # the relative deviation is 1e-6 whatever the scale of the values
        from wdesign import criteria

        weighted = criteria.weighted_info_matrix
        monkeypatch.setattr(criteria, "weighted_info_matrix",
                            lambda c, w: SymMatrix(weighted(c, w).entries * (1.0 + 1e-6)))
        out = tmp_path / "report.json"
        for scale in (1e-10, 1e-5, 1.0, 1e5, 1e10):
            payload = dict(BALANCED, system={"generator": "vs_control", "k": 2,
                                             "b": [scale, 2.0 * scale]})
            assert main(["criterion", "--file", write(tmp_path, payload),
                         "--out", str(out)]) == EXIT_OK
            results = json.loads(out.read_text())["results"]
            assert results["deviation"] == pytest.approx(1e-6, rel=1e-4)

    def test_weight_matrix_only_fixture(self, tmp_path, capsys):
        payload = {
            "model": {"v": 3, "replications": [2, 2, 2]},
            "weight_matrix": {"W": (np.eye(3) - np.ones((3, 3)) / 3).tolist()},
            "criterion": {"name": "D"},
        }
        assert main(["criterion", "--file", write(tmp_path, payload)]) == EXIT_OK
        assert "weighted route (C_W): 2" in capsys.readouterr().out

    def test_rank_deficient_e_is_flagged(self, tmp_path, capsys):
        q = (np.array([-1.0, 1.0, 0.0]) / np.sqrt(2)).tolist()
        payload = {
            "model": {"v": 3, "replications": [2, 2, 2]},
            "system": {"Q": [[q[0], q[0]], [q[1], q[1]], [q[2], q[2]]]},
            "criterion": {"name": "E"},
        }
        assert main(["criterion", "--file", write(tmp_path, payload)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "singular" in out and "positive-spectrum" in out

    def test_a_typed_weight_matrix_keeps_its_rank(self, tmp_path):
        # a rank-one contrast W typed to 12 significant digits: its roundoff
        # eigenvalues sit above 1e-12 of the largest, so only the looser
        # cutoff of typed matrices gives it rank 1
        rng = np.random.default_rng(0)
        for _ in range(8):
            v = int(rng.integers(3, 9))
            d = int(rng.integers(1, v))
            k = (np.eye(v) - np.ones((v, v)) / v) @ rng.standard_normal((v, d))
        assert (v, d) == (8, 1)
        payload = {
            "model": {"v": 8, "replications": [2] * 8},
            "weight_matrix": {"W": [[float(f"{x:.12g}") for x in row] for row in k @ k.T]},
            "criterion": {"name": "A"},
        }
        path = write(tmp_path, payload)
        out = tmp_path / "report.json"
        assert main(["info", "--file", path, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["results"]["weight_matrix"]["rank"] == 1
        assert main(["criterion", "--file", path]) == EXIT_OK

    def test_both_targets_rejected(self, tmp_path, capsys):
        payload = dict(BALANCED)
        payload["weight_matrix"] = {"W": (np.eye(3) - np.ones((3, 3)) / 3).tolist()}
        assert main(["criterion", "--file", write(tmp_path, payload)]) == EXIT_INPUT
        assert "exactly one" in capsys.readouterr().err


class TestWeights:
    def test_fixture_report(self, tmp_path, capsys):
        path = write(tmp_path, BALANCED)
        code = main(["weights", "--file", path,
                     "--query", "0,-0.7071067811865476,0.7071067811865476",
                     "--query", "1,0,0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "secondary=0.5" in out
        assert "outside span (zero weight)" in out
        assert "diagonal" in out

    def test_comparisons_do_not_depend_on_the_scale_of_the_system(self, tmp_path, capsys):
        q = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2)
        pairs = []
        for scale in (1.0, np.sqrt(1e-13)):
            payload = {"model": {"v": 3, "replications": [2, 2, 2]},
                       "system": {"Q": (scale * q).tolist()}}
            out = tmp_path / "report.json"
            assert main(["weights", "--file", write(tmp_path, payload),
                         "--out", str(out)]) == EXIT_OK
            comparisons = json.loads(out.read_text())["results"]["annotations"]["comparisons"]
            pairs.append([(c["i"], c["j"]) for c in comparisons])
        assert pairs[0] == pairs[1] == [(1, 2), (1, 3)]

    def test_dominance_flags_do_not_depend_on_the_scale_of_the_weights(self, tmp_path):
        q = np.array([[-1.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 1.0]]) / np.sqrt(2)
        flags = []
        for b in (1.0, 1e-10):
            payload = {"model": {"v": 3, "replications": [2, 2, 2]},
                       "system": {"Q": q.tolist(), "b": [b] * 3}}
            out = tmp_path / "report.json"
            assert main(["weights", "--file", write(tmp_path, payload),
                         "--out", str(out)]) == EXIT_OK
            records = json.loads(out.read_text())["results"]["records"]
            flags.append([r["dominance_strict"] for r in records])
        assert flags[0] == flags[1] == [True, True, True]

    def test_needs_system(self, tmp_path, capsys):
        payload = {"model": {"v": 3, "replications": [2, 2, 2]}}
        assert main(["weights", "--file", write(tmp_path, payload)]) == EXIT_INPUT

    def test_a_system_of_rank_zero_is_an_input_error(self, tmp_path, capsys):
        # W = Q~ Q~' near 1e-310 falls below the rank cutoff's floor
        q = (1e-155 * np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])).tolist()
        payload = {"model": {"v": 3, "replications": [2, 2, 2]}, "system": {"Q": q}}
        assert main(["weights", "--file", write(tmp_path, payload)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: a system of rank zero weights nothing\n"


class TestCertify:
    def test_all_small_run_passes(self, tmp_path):
        path = write(tmp_path, BALANCED)
        assert main(["certify", "--file", path, "--trials", "5", "--seed", "3"]) == EXIT_OK

    def test_all_builds_the_induced_weight_matrix_once(self, monkeypatch, capsys):
        from wdesign import cli as cli_module

        built = cli_module.weight_matrix_from_system
        calls = []

        def counted(*args):
            calls.append(args)
            return built(*args)

        monkeypatch.setattr(cli_module, "weight_matrix_from_system", counted)
        path = str(GOLDEN_PROBLEMS / "certify-all.json")
        assert main(["certify", "--file", path, "--which", "all", "--trials", "0"]) == EXIT_OK
        ran = [line.split(" on the file instance")[0]
               for line in capsys.readouterr().out.splitlines() if " on the file instance" in line]
        assert ran == list(self.ALL_SYSTEM)
        assert len(calls) == 1

    def test_a_system_whose_weights_straddle_the_smallest_normal_float_is_refused(
            self, tmp_path, capsys):
        # W = Q~Q~' has eigenvalues 2^-1020 and 0.0025 * 2^-1020, the second
        # subnormal: it cannot be inverted, and counting the first alone would
        # give a rank-one answer for a rank-two system
        u = np.column_stack([[1.0, -1.0, 0.0], np.array([1.0, 1.0, -2.0]) / np.sqrt(3.0)])
        q = u / np.sqrt(2.0) @ np.diag([1.0, 0.05])
        for exponent, code in ((-500, EXIT_OK), (-510, EXIT_INPUT)):
            path = write(tmp_path, {"model": {"v": 3, "replications": [2, 2, 2]},
                                    "estimation_space": {"kind": "contrasts"},
                                    "system": {"Q": np.ldexp(q, exponent).tolist()},
                                    "criterion": {"name": "A"}})
            for command in (["criterion"], ["weights"], ["certify", "--trials", "0"]):
                assert main(command + ["--file", path]) == code
                captured = capsys.readouterr()
                if code == EXIT_INPUT:
                    assert_one_error_line(captured.err)
                    assert "rank zero" in captured.err
                else:
                    assert "rank 1" not in captured.out

    def test_theorem2_passes_on_a_large_positive_definite_weight(self, tmp_path, capsys):
        payload = json.loads((GOLDEN_PROBLEMS / "certify-pd-weight.json").read_text())
        payload["weight_matrix"]["W"] = (1e36 * np.array(payload["weight_matrix"]["W"])).tolist()
        assert main(["certify", "--file", write(tmp_path, payload), "--trials", "0"]) == EXIT_OK
        assert "theorem2 on the file instance: pass" in capsys.readouterr().out

    def test_readings_of_a_weighted_information_matrix_pass_at_any_scale_of_w(
            self, tmp_path, capsys):
        # C_W of this W sits near 1 / factor, and near 2e307 the products of
        # the readings overflow unless W is first taken to unit scale
        centered = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        out = tmp_path / "report.json"
        for factor in (1e36, 2e307, 4e307):
            path = write(tmp_path, {"model": {"v": 3, "replications": [2, 2, 2]},
                                    "weight_matrix": {"W": (factor * centered).tolist()}})
            for which in ("aopt", "eopt", "theorem4"):
                assert main(["certify", "--file", path, "--which", which, "--trials", "0",
                             "--out", str(out)]) == EXIT_OK
                captured = capsys.readouterr()
                assert f"{which} on the file instance: pass" in captured.out
                assert captured.err == "" and json.loads(out.read_text())["pass"] is True

    # Which file instance each ``--which`` certifies.  A tuple lists the
    # kinds run on the file, in stdout order; a string is the input error.
    CENTERED = (np.eye(3) - np.ones((3, 3)) / 3).tolist()
    NO_SYSTEM = "{which} certification needs a 'system' section"
    NO_W = "theorem2 certification needs a 'weight_matrix' section"
    NO_W_IN_E = "{which} certification needs a weight matrix inside the estimation space"
    LOW_RANK = ("theorem1 needs a system of rank dim(E)=2; this one has rank 1 "
                "(certify theorem3 instead)")
    SINGULAR = ("theorem2 needs a positive definite weight matrix; this one is singular "
                "(certify theorem4 instead)")
    NOT_ESTIMABLE = "weighted functions are not estimable under this design (K columns [0, 1])"
    NOT_ESTIMABLE_SYSTEM = "system not estimable under the design; offending columns [0]"
    ALL_SYSTEM = ("theorem1", "theorem3", "theorem4", "aopt", "eopt")
    SELECTION = {
        # shape: (sections, outcomes for CERT_KINDS + ("all",))
        "no-target": ({}, (NO_SYSTEM, NO_W, NO_SYSTEM, NO_W_IN_E, NO_W_IN_E, NO_W_IN_E, ())),
        "vs-control": ({"system": {"generator": "vs_control", "k": 2}},
                       (("theorem1",), NO_W, ("theorem3",), NO_W_IN_E, NO_W_IN_E, NO_W_IN_E,
                        ALL_SYSTEM)),
        "vs-control-k1": ({"system": {"generator": "vs_control", "k": 1}},
                          (LOW_RANK, NO_W, ("theorem3",), NO_W_IN_E, NO_W_IN_E, NO_W_IN_E,
                           ALL_SYSTEM[1:])),
        "pairwise": ({"system": {"generator": "pairwise"}},
                     (("theorem1",), NO_W, ("theorem3",), NO_W_IN_E, NO_W_IN_E, NO_W_IN_E,
                      ALL_SYSTEM)),
        "system-outside-e": ({"system": {"Q": [[1], [0], [0]]}},
                             (LOW_RANK, NO_W, NOT_ESTIMABLE_SYSTEM,
                              NO_W_IN_E, NO_W_IN_E, NO_W_IN_E, NOT_ESTIMABLE_SYSTEM)),
        "singular-w": ({"weight_matrix": {"W": CENTERED}},
                       (NO_SYSTEM, SINGULAR, NO_SYSTEM, ("theorem4",), ("aopt",), ("eopt",),
                        ("theorem4", "aopt", "eopt"))),
        "pd-w-outside-e": ({"weight_matrix": {"W": np.diag([2.0, 1.0, 1.0]).tolist()}},
                           (NO_SYSTEM, ("theorem2",), NO_SYSTEM, NO_W_IN_E, NO_W_IN_E,
                            NO_W_IN_E, ("theorem2",))),
        "system-and-w": ({"system": {"generator": "vs_control", "k": 2},
                          "weight_matrix": {"W": CENTERED}},
                         (("theorem1",), SINGULAR, ("theorem3",), ("theorem4",), ("aopt",),
                          ("eopt",), ALL_SYSTEM)),
        "w-not-estimable": ({"model": {"v": 3, "replications": [3, 3, 0]},
                             "weight_matrix": {"W": CENTERED}},
                            (NO_SYSTEM, SINGULAR, NO_SYSTEM) + (NOT_ESTIMABLE,) * 4),
    }

    @pytest.mark.parametrize("which", CERT_KINDS + ("all",))
    @pytest.mark.parametrize("shape", SELECTION)
    def test_file_target_selection(self, tmp_path, capsys, shape, which):
        sections, outcomes = self.SELECTION[shape]
        expected = outcomes[(CERT_KINDS + ("all",)).index(which)]
        payload = {"model": {"v": 3, "replications": [2, 2, 2]}, **sections}
        code = main(["certify", "--file", write(tmp_path, payload), "--which", which,
                     "--trials", "0"])
        captured = capsys.readouterr()
        if isinstance(expected, str):
            assert code == EXIT_INPUT
            assert captured.err == f"error: {expected.format(which=which)}\n"
            assert captured.out == ""
        else:
            assert code == EXIT_OK and captured.err == ""
            ran = [line.split(" on the file instance")[0]
                   for line in captured.out.splitlines() if " on the file instance" in line]
            assert ran == list(expected)


class TestSearch:
    def test_search_does_not_depend_on_an_extreme_scale_of_the_weights(self, tmp_path, capsys):
        # at W x 1e-307 the forms K' C^+ K of some designs fall into the
        # subnormal range unless the scorer takes K to unit scale
        document = json.loads((GOLDEN_PROBLEMS / "exchange-trend-0.json").read_text())
        document["search"]["restarts"] = 4
        out = tmp_path / "report.json"
        found = []
        for factor in (1.0, 1e-307, 2e-307):
            scaled = json.loads(json.dumps(document))
            scaled["weight_matrix"]["W"] = _scaled(scaled["weight_matrix"]["W"], factor)
            assert main(["search", "--file", write(tmp_path, scaled), "--out", str(out)]) == EXIT_OK
            results = json.loads(out.read_text())["results"]
            found.append((results["best_assignment"], [r["passes"] for r in results["restarts"]]))
        assert found[1] == found[0] and found[2] == found[0]
        # at W x 1e300 the forms of the enumeration overflowed before they
        # were dropped, with a RuntimeWarning
        w = (1e300 * (3.0 * np.eye(3) - np.ones((3, 3)))).tolist()
        payload = dict(BALANCED, system=None, weight_matrix={"W": w})
        assert main(["search", "--file", write(tmp_path, payload)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "best replications: [2, 2, 2]" in captured.out and captured.err == ""

    def test_enumerates_fixture(self, tmp_path, capsys):
        path = write(tmp_path, BALANCED)
        assert main(["search", "--file", path, "--both-routes"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "best replications: [2, 2, 2]" in out
        assert "argmax equivalence of the two routes: pass" in out

    def test_both_routes_rejects_a_large_space_before_searching(self, tmp_path, monkeypatch,
                                                                capsys):
        from wdesign import search

        def refused(problem):
            raise AssertionError("exchange search ran")

        monkeypatch.setattr(search, "exchange_search", refused)
        payload = {
            "model": {"v": 4, "n": 12, "assignment": [1] * 12,
                      "nuisance": {"kind": "blocks", "sizes": [4, 4, 4]}},
            "system": {"generator": "pairwise"},
            "criterion": {"name": "A"},
            "search": {"seed": 11, "restarts": 4, "max_passes": 40},
        }
        path = write(tmp_path, payload)
        assert main(["search", "--file", path, "--both-routes"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: --both-routes needs an enumerable instance\n"
        assert captured.out == ""

    def test_a_rank_zero_weight_matrix_is_an_input_error(self, tmp_path, capsys):
        payload = dict(BALANCED, weight_matrix={"W": np.zeros((3, 3)).tolist()})
        del payload["system"]
        out = tmp_path / "report.json"
        assert main(["search", "--file", write(tmp_path, payload),
                     "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_needs_search_section(self, tmp_path):
        payload = {k: v for k, v in BALANCED.items() if k != "search"}
        assert main(["search", "--file", write(tmp_path, payload)]) == EXIT_INPUT

    def test_reports_are_reproducible(self, tmp_path, capsys):
        path = write(tmp_path, BALANCED)
        for name in ("a.json", "b.json"):
            assert main(["search", "--file", path, "--out", str(tmp_path / name)]) == EXIT_OK
        capsys.readouterr()
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_large_space_uses_exchange(self, tmp_path, capsys):
        payload = {
            "model": {"v": 4, "n": 12, "assignment": [1] * 12,
                      "nuisance": {"kind": "blocks", "sizes": [4, 4, 4]}},
            "system": {"generator": "pairwise"},
            "criterion": {"name": "A"},
            "search": {"seed": 11, "restarts": 4, "max_passes": 40},
        }
        assert main(["search", "--file", write(tmp_path, payload)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "exchange" in out

    def test_exchange_report_lists_the_restarts(self, tmp_path, capsys):
        payload = {
            "model": {"v": 4, "n": 12, "assignment": [1] * 12,
                      "nuisance": {"kind": "blocks", "sizes": [4, 4, 4]}},
            "system": {"generator": "pairwise"},
            "criterion": {"name": "A"},
            "search": {"seed": 11, "restarts": 4, "max_passes": 40},
        }
        out = tmp_path / "report.json"
        assert main(["search", "--file", write(tmp_path, payload), "--out", str(out)]) == EXIT_OK
        assert "restart" not in capsys.readouterr().out
        results = json.loads(out.read_text())["results"]
        assert [r["final_value"] for r in results["restarts"]] == results["trace"]
        for r in results["restarts"]:
            assert set(r) == {"start_value", "passes", "improving_moves", "moves_scored",
                              "final_value"}
            assert r["moves_scored"] == r["passes"] * 12 * 3
        enumerated = tmp_path / "enumerated.json"
        assert main(["search", "--file", write(tmp_path, BALANCED),
                     "--out", str(enumerated)]) == EXIT_OK
        assert "restarts" not in json.loads(enumerated.read_text())["results"]


#: Numeric subtrees of a problem file that the scale sweep multiplies, one at
#: a time, where the file has them; and the factors it multiplies them by.
SCALED_SUBTREES = (("system", "Q"), ("system", "b"), ("weight_matrix", "W"),
                   ("model", "nuisance", "L"), ("estimation_space", "basis"))
SCALE_FACTORS = (2.0**60, 2.0**-60, 1e36, 1e-36, 1e150, 1e-150, 1e300, 1e-300)

#: The factors at which ``search`` runs too: it is the slow command, and the
#: extremes are where a scale breaks first.
SEARCH_FACTORS = (1.0, 1e300, 1e-300)

#: Unscaled golden problems that ``certify`` refuses: the blocks of
#: enum-blocks-0 leave treatment 1 alone in the first, so C misses the
#: contrasts (its search finds a connected design).
UNCERTIFIABLE = ("enum-blocks-0.json",)


def _scaled(value, factor):
    if isinstance(value, list):
        return [_scaled(entry, factor) for entry in value]
    return factor * value


def _subtree_parent(document, keys):
    """The object holding the subtree ``keys``, or None when the file has none."""
    node = document
    for key in keys[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    return node if isinstance(node, dict) and keys[-1] in node else None


def _sweep_cases():
    for path in sorted(GOLDEN_PROBLEMS.glob("*.json")):
        document = json.loads(path.read_text())
        yield pytest.param(path.name, None, 1.0, id=path.stem)
        for keys in SCALED_SUBTREES:
            if _subtree_parent(document, keys) is not None:
                for factor in SCALE_FACTORS:
                    yield pytest.param(path.name, keys, factor,
                                       id=f"{path.stem}-{'.'.join(keys)}-{factor:g}")


#: Subtrees that scale the weights by ``factor``: ``C_W`` and ``N_Q`` scale by
#: ``1 / factor``, so D, A and E, homogeneous of degree one, do too.
WEIGHT_SUBTREES = (("system", "b"), ("weight_matrix", "W"))

#: Relative gap allowed between a scaled criterion value and the unscaled
#: value divided by the factor.
VALUE_RTOL = 1e-9


def _run(tmp_path, capsys, document, commands):
    """``command -> (exit code, stdout, --out report or None)`` of each command
    on the document, each run asserted to keep the exit-code contract."""
    path = write(tmp_path, document)
    out = tmp_path / "report.json"
    runs = {}
    for command in commands:
        out.unlink(missing_ok=True)
        code = main(command + ["--file", path, "--out", str(out)])
        captured = capsys.readouterr()
        if code == EXIT_INPUT:
            assert_one_error_line(captured.err)
            assert not out.exists()
            report = None
        else:
            report = json.loads(out.read_text())
            assert code == (EXIT_CERT_FAIL if report["pass"] is False else EXIT_OK)
        runs[command[0]] = (code, captured.out, report)
    return runs


def _readings(runs):
    """The criterion values of both routes (None when refused) and the
    file-instance verdicts of certify, deviations aside."""
    code, _, report = runs["criterion"]
    values = None if code == EXIT_INPUT else [report["results"][route]["value"]
                                              for route in ("route_system", "route_weighted")]
    verdicts = [line.split(" (deviation")[0] for line in runs["certify"][1].splitlines()
                if " on the file instance" in line]
    return values, verdicts


class TestScaleSweep:
    """Each golden problem file with one numeric subtree scaled, through every
    command that applies: the exit code keeps its contract at every scale,
    and a scale of the weights scales the criterion values by its inverse
    and leaves the certify verdicts as they are."""

    COMMANDS = (["info"], ["criterion"], ["weights"], ["certify", "--trials", "0"])

    #: ``_readings`` of each unscaled file, run once.
    unscaled = {}

    @pytest.mark.parametrize("name, keys, factor", list(_sweep_cases()))
    def test_exit_codes_keep_their_contract(self, tmp_path, capsys, name, keys, factor):
        document = json.loads((GOLDEN_PROBLEMS / name).read_text())
        if keys is not None:
            parent = _subtree_parent(document, keys)
            parent[keys[-1]] = _scaled(parent[keys[-1]], factor)
        commands = list(self.COMMANDS)
        if "search" in document and factor in SEARCH_FACTORS:
            commands.append(["search"])
        runs = _run(tmp_path, capsys, document, commands)
        # a scale of valid input is valid input: certify may pass or be
        # refused, never fail; every certifiable unscaled file passes
        code, _, report = runs["certify"]
        assert code != EXIT_CERT_FAIL
        if keys is None and name not in UNCERTIFIABLE:
            assert code == EXIT_OK and report["pass"] is True
        if keys not in WEIGHT_SUBTREES:
            return
        if name not in self.unscaled:
            unscaled = json.loads((GOLDEN_PROBLEMS / name).read_text())
            self.unscaled[name] = _readings(_run(tmp_path, capsys, unscaled, self.COMMANDS))
        values, verdicts = self.unscaled[name]
        got_values, got_verdicts = _readings(runs)
        assert got_verdicts == verdicts
        if values is None:
            assert got_values is None
        else:
            assert got_values == pytest.approx([value / factor for value in values],
                                               rel=VALUE_RTOL, abs=0.0)
