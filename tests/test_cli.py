"""Problem-file parsing, the five subcommands, exit codes, report stability."""

import json

import numpy as np
import pytest

from wdesign.cli import (
    EXIT_CERT_FAIL,
    EXIT_INPUT,
    EXIT_OK,
    load_problem,
    main,
    parse_problem,
    serialize_problem,
)

BALANCED = {
    "model": {"v": 3, "n": 6, "replications": [2, 2, 2], "nuisance": "intercept"},
    "estimation_space": {"kind": "contrasts"},
    "system": {"generator": "vs_control", "k": 2},
    "criterion": {"name": "A"},
    "search": {"seed": 7, "restarts": 10, "max_passes": 50},
}


def write(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParsing:
    def test_round_trip_identity(self, tmp_path):
        path = write(tmp_path, BALANCED)
        problem, _ = load_problem(path)
        again = parse_problem(serialize_problem(problem))
        assert again == problem
        assert serialize_problem(again) == serialize_problem(problem)

    def test_round_trip_blocks_and_explicit_weight(self, tmp_path):
        payload = {
            "model": {"v": 3, "assignment": [1, 2, 3, 1, 2, 3],
                      "nuisance": {"kind": "blocks", "sizes": [3, 3]}},
            "weight_matrix": {"W": (np.eye(3) - np.ones((3, 3)) / 3).tolist()},
            "criterion": {"name": "E"},
        }
        problem, _ = load_problem(write(tmp_path, payload))
        assert parse_problem(serialize_problem(problem)) == problem

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

        def failing(kind, rng):
            return CertificationReport(kind, False, 1.0, 1e-8,
                                       np.array([1.0]), np.array([2.0]))

        monkeypatch.setattr(cli_module, "_random_certification", failing)
        path = write(tmp_path, BALANCED)
        assert main(["certify", "--file", path, "--which", "theorem3",
                     "--trials", "2"]) == EXIT_CERT_FAIL
        out = capsys.readouterr().out
        assert "FAILURES" in out and "seed" in out


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

    def test_needs_system(self, tmp_path, capsys):
        payload = {"model": {"v": 3, "replications": [2, 2, 2]}}
        assert main(["weights", "--file", write(tmp_path, payload)]) == EXIT_INPUT


class TestCertify:
    def test_all_small_run_passes(self, tmp_path):
        path = write(tmp_path, BALANCED)
        assert main(["certify", "--file", path, "--trials", "5", "--seed", "3"]) == EXIT_OK


class TestSearch:
    def test_enumerates_fixture(self, tmp_path, capsys):
        path = write(tmp_path, BALANCED)
        assert main(["search", "--file", path, "--both-routes"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "best replications: [2, 2, 2]" in out
        assert "argmax equivalence of the two routes: pass" in out

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
