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
    ])
    @pytest.mark.parametrize("command", ["info", "search"])
    def test_malformed_sections_are_input_errors(self, tmp_path, capsys, command, section,
                                                 value):
        path = write(tmp_path, dict(BALANCED, **{section: value}))
        assert main([command, "--file", path]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

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
        from wdesign import cli as cli_module

        weighted = cli_module.weighted_info_matrix
        monkeypatch.setattr(cli_module, "weighted_info_matrix",
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
