import json

import pytest

from matchgap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_support_cutoff_is_usage_error(self, capsys):
        code, _, err = run(capsys, "exact", "--gen", "karp_sipser", "--n", "5",
                           "--c", "1.0")
        assert code == 2
        assert "support too large" in err


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

    def test_csv_format_flat_rows(self, capsys):
        code, out, _ = run(capsys, "verify", *self.QUICK, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check,passed,min_value,argmin,parameters"
        assert len(lines) > 5

    def test_report_rejects_csv(self, capsys):
        code, _, err = run(capsys, "report", "--format", "csv")
        assert code == 2
        assert "json" in err


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
        code, out, err = run(capsys, "phi", "--gen", "pendant_star", "--n", "3",
                             "--mode", "mc", "--samples", samples)
        assert code == 1
        assert out == ""
        assert "need at least one sample" in err

    @pytest.mark.parametrize("grid_points", ["0", "-1", "-2"])
    def test_no_grid_points_fails(self, capsys, grid_points):
        code, out, err = run(capsys, "phi", "--gen", "pendant_star", "--n", "3",
                             "--grid-points", grid_points)
        assert code == 1
        assert out == ""
        assert err == "error: need at least one grid point\n"
