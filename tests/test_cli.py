import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matchgap.cli import _derivative_trials, _worst_gain_trial, main, run_verify_suite
from matchgap.gallery import gen_random_point
from matchgap.kernels import check_phi_differential, local_derivative_sides
from matchgap.rng import uniform_block
from matchgap.sampling import sample

from conftest import bits, literal_derivative_sides, literal_random_point, loop_gain_margins


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused(capsys, *argv):
    """stderr of a command line the parser refuses: exit 2, empty stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    return out.err


class TestGen:
    def test_gen_emits_schema(self, capsys):
        code, out, _ = run(capsys, "gen", "--gen", "pendant_star", "--n", "3",
                           "--eps", "0.5")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "bipartite"
        assert data["n"] == 3
        assert {"u", "v", "x", "w"} <= set(data["edges"][0])

    def test_round_trip_through_file(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        code, _, _ = run(capsys, "gen", "--gen", "karp_sipser", "--n", "3",
                         "--c", "1.0", "--kind", "general", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "exact", "--inst", str(path))
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["method"] == "exact"


class TestExactAndMc:
    def test_exact_pendant_star_matches_library(self, capsys):
        from matchgap import exact_ratio
        from matchgap.gallery import gen_pendant_star
        code, out, _ = run(capsys, "exact", "--gen", "pendant_star", "--n", "3",
                           "--eps", "0.5")
        assert code == 0
        value = float(json.loads(out)[0]["value"])
        assert value == pytest.approx(exact_ratio(gen_pendant_star(3, 0.5)).value)

    def test_infeasible_gated(self, capsys):
        code, _, err = run(capsys, "mc", "--gen", "karp_sipser", "--n", "20",
                           "--c", "3.0", "--samples", "10")
        assert code == 1
        assert "infeasible" in err

    def test_allow_infeasible(self, capsys):
        code, out, _ = run(capsys, "mc", "--gen", "karp_sipser", "--n", "20",
                           "--c", "3.0", "--samples", "50", "--seed", "7",
                           "--allow-infeasible")
        assert code == 0
        assert json.loads(out)[0]["samples"] == 50

    def test_deterministic_bytes(self, capsys):
        args = ("mc", "--gen", "random_point", "--n", "4", "--density", "0.7",
                "--seed", "3", "--samples", "200", "--format", "csv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "exact", "--gen", "pendant_star", "--n", "3",
                           "--eps", "0.5", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "instance_id,method,value,ci_low,ci_high,samples,seed"

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "exact", "--inst", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("doc,message", [
        ({"kind": "bipartite", "n": 2}, '"edges", a list of edge objects'),
        ({"kind": "bipartite", "n": 2, "edges": [{"u": 0, "v": 1}]}, 'edge 0 has no "x"'),
        ({"kind": "bipartite", "n": 2.5, "edges": []},
         'instance: "n" must be an integer, got 2.5'),
        ({"kind": "bipartite", "n": 2, "edges": [{"u": 0.7, "v": 1, "x": 0.5}]},
         'edge 0: "u" must be an integer, got 0.7'),
        ({"kind": "bipartite", "n": 2, "edges": [{"u": 0, "v": 1, "x": "0.5"}]},
         'edge 0: "x" must be a number, got \'0.5\''),
        ({"kind": "bipartite", "n": 2, "edges": {"u": 0}}, '"edges", a list of edge objects'),
        ({"kind": "bipartite", "n": 2, "edges": [[0, 1, 0.5]]}, '"edges", a list of edge'),
        ({"n": 2, "edges": []}, 'an instance is an object with "kind", "n" and "edges"'),
        ({"kind": "general", "edges": []}, 'instance has no "n"'),
        ([], 'an instance is an object with "kind"'),
        ({"kind": "Bipartite", "n": 2, "edges": []},
         'instance: "kind" must be "bipartite" or "general", got \'Bipartite\''),
        ({"kind": 5, "n": 2, "edges": []},
         'instance: "kind" must be "bipartite" or "general", got 5'),
    ])
    def test_instance_off_the_schema_is_usage_error(self, capsys, tmp_path, doc, message):
        # a missing key was a KeyError traceback; 2.5 and 0.7 were truncated by int();
        # a kind outside the two names exited 1, as a mathematical violation does
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "exact", "--inst", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_support_cutoff_is_usage_error(self, capsys):
        code, _, err = run(capsys, "exact", "--gen", "karp_sipser", "--n", "5",
                           "--c", "1.0")
        assert code == 2
        assert "support too large" in err

    def test_phi_exact_refuses_the_support_as_exact_does(self, capsys):
        # 25 edges: one cutoff check, one message (phi's subset sweep had its own)
        argv = ["--gen", "karp_sipser", "--n", "5", "--c", "1.0"]
        exact = run(capsys, "exact", *argv)
        assert exact == (2, "", "error: support too large: 2**25 subsets exceeds cutoff 2**20\n")
        assert run(capsys, "phi", "--mode", "exact", *argv) == exact


class TestArguments:
    """Out-of-range seeds and tolerances are usage errors, refused by the parser."""

    refused = staticmethod(refused)

    @pytest.mark.parametrize("argv", [
        ["mc", "--gen", "karp_sipser", "--kind", "bipartite", "--n", "6", "--samples", "10"],
        ["gen", "--gen", "random_point", "--n", "3"],
        ["verify", "--m-max", "0", "--gain-trials", "0", "--derivative-trials", "0"],
    ])
    @pytest.mark.parametrize("seed", ["-1", "-2", str(2 ** 64), str(2 ** 70)])
    def test_seed_outside_64_bits_refused(self, capsys, argv, seed):
        err = self.refused(capsys, *argv, "--seed", seed)
        assert f"error: argument --seed: must be an integer in [0, 2**64), got {seed}\n" in err

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run(capsys, "mc", "--gen", "karp_sipser", "--n", "6", "--samples", "10",
                           "--seed", str(2 ** 64 - 1))
        assert code == 0
        assert json.loads(out)[0]["seed"] == 2 ** 64 - 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--m-max", "1", "--gain-trials", "2", "--derivative-trials", "2"],
        ["report", "--instances", "1", "--karp-n", "4", "--samples", "10"],
    ])
    def test_largest_seed_wraps_derived_seeds(self, capsys, argv):
        # verify's seed * 100003 + k, seed + 1 and seed + 7 and report's
        # seed * 7919 + k overflowed 64 bits: an OverflowError traceback
        code, out, err = run(capsys, *argv, "--seed", str(2 ** 64 - 1))
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    def test_suite_at_largest_seed_wraps_derived_seeds(self):
        seed = 2 ** 64 - 1
        reports = run_verify_suite(m_max=1, gain_trials=2, derivative_trials=3, seed=seed)
        assert all(r.passed for r in reports)
        checks = {r.check: r for r in reports}
        assert checks["local_derivative_bound"].parameters["seed"] == seed
        # the phi instance's seed + 7 wraps to 6
        phi = check_phi_differential(gen_random_point(4, 0.5, 6, "general"), grid_points=50,
                                     tolerance=1e-9)
        assert checks["phi_differential"].to_dict() == phi.to_dict()

    @pytest.mark.parametrize("command,option", [
        ("gen", ["--samples", "10"]), ("gen", ["--format", "csv"]),
        ("gen", ["--tolerance", "0"]), ("gen", ["--allow-infeasible"]),
        ("exact", ["--samples", "10"]),
        ("verify", ["--samples", "10"]), ("verify", ["--allow-infeasible"]),
        ("report", ["--allow-infeasible"]), ("report", ["--format", "csv"]),
    ])
    def test_options_the_command_does_not_read_refused(self, capsys, command, option):
        err = self.refused(capsys, command, *option)
        assert f"error: unrecognized arguments: {' '.join(option)}\n" in err

    def test_non_integer_seed_refused(self, capsys):
        err = self.refused(capsys, "gen", "--gen", "random_point", "--seed", "1.5")
        assert "error: argument --seed: invalid int value: '1.5'" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, tolerance):
        # nan passed every gate (an infeasible c = 1.5 ran); -1 failed feasible c = 0.5
        for c in ("1.5", "0.5"):
            err = self.refused(capsys, "mc", "--gen", "karp_sipser", "--kind", "bipartite",
                               "--n", "10", "--c", c, "--samples", "10",
                               f"--tolerance={tolerance}")
            assert (f"error: argument --tolerance: must be finite and non-negative, "
                    f"got {tolerance}\n") in err

    @pytest.mark.parametrize("option,value", [
        ("--grid-step", "0"), ("--grid-step", "-0.05"), ("--grid-step", "nan"),
        ("--grid-step", "inf"), ("--envelope-step", "0"), ("--envelope-step", "nan"),
        ("--envelope-step", "inf"), ("--c", "nan"), ("--c", "inf"), ("--c", "-inf"),
        ("--envelope-step", "1.5"), ("--envelope-step", "5"), ("--envelope-step", "-0.5"),
    ])
    def test_verify_steps_and_c_must_be_finite(self, capsys, option, value):
        # --grid-step 0 was a ZeroDivisionError traceback; -0.05, nan and the
        # envelope's nan and inf exited 1 naming no option; --c nan ran.
        # --envelope-step 5 passed the envelope from x = 0 alone, and 1.5
        # also checked x = 1.5, outside [0, 1]
        err = self.refused(capsys, "verify", "--m-max", "1", "--gain-trials", "0",
                           "--derivative-trials", "0", f"{option}={value}")
        what = {"--c": "finite", "--envelope-step": "in (0, 1]"}.get(option, "finite and positive")
        assert f"error: argument {option}: must be {what}, got {value}\n" in err

    @pytest.mark.parametrize("argv", [
        ["mc", "--gen", "pendant_star", "--samples", "0"],
        ["mc", "--gen", "pendant_star", "--samples", "-3"],
        ["certify", "--gen", "pendant_star", "--mode", "mc", "--samples", "0"],
        ["certify", "--gen", "pendant_star", "--samples", "-3"],
        ["phi", "--gen", "pendant_star", "--samples", "0"],
        ["report", "--samples", "0"],
        ["report", "--samples", "-3"],
    ])
    def test_samples_must_be_positive(self, capsys, argv):
        # mc, certify --mode mc and report exited 1, the code of a
        # mathematical violation; certify --mode exact and phi --mode
        # exact ran with a sample count they never read
        err = self.refused(capsys, *argv)
        assert err.startswith(f"usage: matchgap {argv[0]} ")
        assert f"error: argument --samples: must be positive, got {argv[-1]}\n" in err

    @pytest.mark.parametrize("step", ["0.3", "0.15", "2"])
    def test_grid_step_must_divide_1_for_the_minimizer_checks(self, capsys, step):
        # exited 1 with kernels' 'grid step must divide 1'; without the
        # minimizer checks (--m-max 0) the step need not divide 1
        err = self.refused(capsys, "verify", "--m-max", "1", "--grid-step", step)
        assert err.startswith("usage: matchgap verify ")
        assert ("error: argument --grid-step: grid step must divide 1 when --m-max is "
                "at least 1\n") in err
        code, out, _ = run(capsys, "verify", "--m-max", "0", "--gain-trials", "0",
                           "--derivative-trials", "0", "--grid-step", step)
        assert code == 0 and json.loads(out)["passed"] is True

    def test_zero_tolerance_gates_as_before(self, capsys):
        argv = ["mc", "--gen", "karp_sipser", "--kind", "bipartite", "--n", "10",
                "--samples", "10", "--tolerance", "0"]
        assert run(capsys, *argv, "--c", "0.5")[0] == 0
        code, out, err = run(capsys, *argv, "--c", "1.5")
        assert (code, out) == (1, "")
        assert "infeasible instance" in err


class TestCertify:
    def test_single_edge_certificate(self, capsys):
        code, out, _ = run(capsys, "certify", "--gen", "pendant_star", "--n", "2",
                           "--eps", "1.0")
        # eps = 1: spread edges have x = 0, only the designated pair counts
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] for r in rows)

    def test_kernel_bound_certify(self, capsys):
        code, out, _ = run(capsys, "certify", "--gen", "pendant_star", "--n", "3",
                           "--eps", "0.3", "--bound", "kernel")
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] for r in rows)


    @pytest.mark.parametrize("mode,scheme", [("mc", "weighted"), ("mc", "unweighted"),
                                             ("exact", "unweighted")])
    def test_kernel_bound_json(self, capsys, mode, scheme):
        code, out, _ = run(capsys, "certify", "--gen", "pendant_star", "--n", "3",
                           "--eps", "0.3", "--bound", "kernel", "--mode", mode,
                           "--scheme", scheme, "--samples", "200")
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] is True for r in rows)
        assert all(float(r["certificate"]) > 0 for r in rows)


class TestVerify:
    QUICK = ("--m-max", "2", "--gain-trials", "40", "--derivative-trials", "5",
             "--grid-step", "0.25", "--envelope-step", "0.01")

    def test_default_constants_pass(self, capsys):
        code, out, _ = run(capsys, "verify", *self.QUICK)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        names = {c["check"] for c in payload["checks"]}
        assert {"kernel_pair_minimum", "equal_split_minimality", "gain_ratios",
                "unweighted_envelope", "weighted_kernel_constant",
                "general_bound_constant", "local_derivative_bound",
                "phi_differential"} <= names

    def test_small_c_fails_with_named_violation(self, capsys):
        code, out, _ = run(capsys, "verify", *self.QUICK, "--c", "0.01",
                           "--grid-step", "0.05")
        assert code == 1
        payload = json.loads(out)
        failing = [c["check"] for c in payload["checks"] if not c["passed"]]
        assert "equal_split_minimality" in failing

    def test_coarse_grid_still_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-max", "2", "--gain-trials", "20",
                           "--derivative-trials", "3", "--grid-step", "0.5",
                           "--envelope-step", "0.05")
        assert code == 0

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", *self.QUICK)
        _, out2, _ = run(capsys, "verify", *self.QUICK)
        assert out1 == out2

    def test_gain_draws_do_not_depend_on_block_size(self, capsys, monkeypatch):
        # gain trials are drawn a block at a time; blocks of 3 rows put
        # block edges inside the run and must give the same output bytes
        _, out1, _ = run(capsys, "verify", *self.QUICK)
        monkeypatch.setattr("matchgap.cli.BLOCK_BYTES", 3 * 64)
        _, out2, _ = run(capsys, "verify", *self.QUICK)
        assert out1 == out2

    @pytest.mark.parametrize("flag", ["--m-max", "--gain-trials", "--derivative-trials",
                                      "--instances"])
    def test_negative_counts_refused(self, capsys, flag):
        # usage errors since the parser checks them; report --instances -1
        # exited 0 having checked no instance
        value = "-1" if flag == "--instances" else "-3"
        argv = ["report"] if flag == "--instances" else ["verify", *self.QUICK]
        err = refused(capsys, *argv, flag, value)
        assert f"error: argument {flag}: must be non-negative, got {value}\n" in err

    def test_zero_counts_skip_their_checks(self, capsys):
        code, out, _ = run(capsys, "verify", *self.QUICK, "--m-max", "0",
                           "--gain-trials", "0", "--derivative-trials", "0")
        assert code == 0
        names = {c["check"] for c in json.loads(out)["checks"]}
        assert not names & {"kernel_pair_minimum", "uniform_minimizer", "gain_ratios",
                            "local_derivative_bound"}
        assert "unweighted_envelope" in names

    def test_csv_format_flat_rows(self, capsys):
        code, out, _ = run(capsys, "verify", *self.QUICK, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check,passed,min_value,argmin,parameters"
        assert len(lines) > 5

    def test_report_skips_points_past_the_support_cutoff(self, capsys):
        # ratio_floors point 31 at seed 4 is a 5 x 5 bipartite draw with 21
        # edges; it stopped the report with "support too large" and exit 2
        assert gen_random_point(5, 0.6, 4 * 7919 + 31, "bipartite").num_edges == 21
        code, out, err = run(capsys, "report", "--seed", "4", "--instances", "32",
                             "--karp-n", "4", "--samples", "10")
        assert (code, err) == (0, "")
        floors = json.loads(out)["ratio_floors"]
        assert all(f["passed"] and f["worst_ratio"] is not None for f in floors.values())


def per_trial_worst(seed, trials, rows=None):
    """Trial k's vector through the loop reference, one trial at a time;
    the first least margin is kept: (margin, probs, g, margins)."""
    rows = uniform_block(seed, np.arange(trials), 8) if rows is None else rows
    worst = None
    for k, row in enumerate(rows[:trials]):
        u = row[:2 + k % 7]
        probs = (u / u.sum()).tolist()
        g, margins = loop_gain_margins(probs)
        if worst is None or margins.min() < worst[0]:
            worst = (margins.min(), probs, g, margins)
    return worst


def assert_report_is(report, worst, trials, seed):
    margin, probs, g, margins = worst
    assert bits(report.min_value) == bits(margin)
    assert report.argmin == 3 + int(np.argmin(margins))
    assert bits(report.details["g"]) == bits(g)
    assert report.parameters == {"m": len(probs), "j_max": len(g), "tolerance": 1e-9,
                                 "trials": trials, "seed": seed}


class TestGainTrials:
    """verify's batched gain trials against the per-trial path."""

    @pytest.mark.parametrize("seed", range(32))
    def test_worst_report_equals_per_trial_path(self, seed):
        report, = _worst_gain_trial(300, 1e-9, seed)
        assert_report_is(report, per_trial_worst(seed, 300), 300, seed)

    @pytest.mark.parametrize("trials", [0, 1, 7])
    def test_trial_counts_through_the_suite(self, trials):
        reports = run_verify_suite(m_max=0, gain_trials=trials, derivative_trials=0, seed=3)
        gains = [r for r in reports if r.check == "gain_ratios"]
        if trials == 0:
            assert gains == []
        else:
            assert len(gains) == 1
            assert_report_is(gains[0], per_trial_worst(3, trials), trials, 3)

    @pytest.mark.parametrize("block_rows", [None, 3])
    def test_exact_tie_reports_the_first_trial(self, monkeypatch, block_rows):
        # trials 3 (length 5) and 8 (length 3) both become (1, 0, ...): equal
        # pmfs, so equal margins bit for bit, below every random trial's; the
        # earlier, longer one must win, also when blocks of 3 rows split them
        rows = uniform_block(5, np.arange(12), 8)
        rows[[3, 8]] = [0.5] + [0.0] * 7
        monkeypatch.setattr("matchgap.cli.uniform_block", lambda seed, ks, width: rows[ks])
        if block_rows:
            monkeypatch.setattr("matchgap.cli.BLOCK_BYTES", block_rows * 64)
        worst = per_trial_worst(5, 12, rows)
        assert len(worst[1]) == 5
        assert bits(loop_gain_margins([1.0, 0.0, 0.0])[1].min()) == bits(worst[0])
        report, = _worst_gain_trial(12, 1e-9, 5)
        assert_report_is(report, worst, 12, 5)


def per_graph_trial(seed, k):
    """Derivative trial k through the per-seed generator, its own sample
    and the per-graph formula: (lhs, rhs, edges, realized)."""
    inst = literal_random_point(2 + k % 5, 0.6, (seed * 100003 + k) % (1 << 64), "general")
    g = sample(inst, (seed + 1) % (1 << 64), k)
    return (*literal_derivative_sides(g), inst.num_edges, g.num_realized)


class TestDerivativeTrials:
    """verify's batched local derivative trials against the per-graph path."""

    @pytest.mark.parametrize("seed", [*range(32), 2 ** 63 + 5])
    def test_every_trial_equals_the_per_graph_path(self, seed):
        for n in range(2, 7):
            ks = np.arange(n - 2, 100, 5)
            union, cuts, realized = _derivative_trials(n, ks, seed)
            lhs, rhs = local_derivative_sides(union, realized, cuts)
            for i, k in enumerate(ks.tolist()):
                want_lhs, want_rhs, edges, count = per_graph_trial(seed, k)
                a, b = cuts[i], cuts[i + 1]
                assert (b - a, np.count_nonzero(realized[a:b])) == (edges, count)
                assert bits([lhs[i], rhs[i]]) == bits([want_lhs, want_rhs])

    @pytest.mark.parametrize("seed", [0, 9, 2 ** 64 - 1])
    @pytest.mark.parametrize("trials", [0, 1, 3, 100])
    def test_worst_report_is_the_first_least_trial(self, seed, trials):
        worst = None
        for k in range(trials):
            lhs, rhs, edges, count = per_graph_trial(seed, k)
            if worst is None or lhs - rhs < worst[0]:
                worst = (lhs - rhs, lhs, rhs, edges, count)
        reports = run_verify_suite(m_max=0, gain_trials=0, derivative_trials=trials, seed=seed)
        found = [r for r in reports if r.check == "local_derivative_bound"]
        if worst is None:
            assert found == []
            return
        report, = found
        margin, lhs, rhs, edges, count = worst
        assert bits(report.min_value) == bits(margin)
        assert bits([report.details["lhs"], report.details["rhs"]]) == bits([lhs, rhs])
        assert report.parameters == {"edges": edges, "realized": count, "tolerance": 1e-9,
                                     "trials": trials, "seed": seed}


class TestPhi:
    def test_phi_grid(self, capsys):
        code, out, _ = run(capsys, "phi", "--gen", "random_point", "--n", "3",
                           "--density", "0.8", "--seed", "2", "--grid-points", "4",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,phi"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_mc_without_samples_fails(self, capsys, samples):
        err = refused(capsys, "phi", "--gen", "pendant_star", "--n", "3",
                                    "--mode", "mc", "--samples", samples)
        assert f"error: argument --samples: must be positive, got {samples}\n" in err

    @pytest.mark.parametrize("grid_points", ["0", "-1", "-2"])
    def test_no_grid_points_fails(self, capsys, grid_points):
        err = refused(capsys, "phi", "--gen", "pendant_star", "--n", "3",
                                    "--grid-points", grid_points)
        assert f"error: argument --grid-points: must be positive, got {grid_points}\n" in err


def test_command_paths_import_no_lazy_numpy_modules():
    # numpy.ma (np.unique's first call) and numpy.polynomial cost several ms
    # to import; verify, the benchmark's two certify commands and an mc run,
    # in a fresh interpreter, must leave both unimported
    script = """
import contextlib, io, sys
from matchgap.cli import main
for argv in (["verify"],
             ["certify", "--gen", "equal_split_star", "--n", "7", "--eps", "0.1",
              "--scheme", "unweighted", "--bound", "mass", "--mode", "exact"],
             ["certify", "--gen", "pendant_star", "--n", "30", "--eps", "0.1",
              "--bound", "kernel", "--mode", "mc", "--samples", "500"],
             ["mc", "--gen", "karp_sipser", "--n", "20", "--samples", "200"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted({"numpy.ma", "numpy.polynomial"} & set(sys.modules)))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
