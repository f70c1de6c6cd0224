import itertools
import json
import math
import time

import pytest

from lpsections import cli
from lpsections.schemas import SCHEMAS, validate_output

EXPECTED_HEADERS = {
    "volume": "engine,p,n,a_spec,value,err_bound,samples,seed",
    "kernel": "p,s,value,err_bound",
    "crossing": "p,n,a_diag,a_diag_err,a2,holds,indeterminate,first_n_holds,holds_for_all_tail",
    "verify": "suite,name,p,n,lhs,rhs,satisfied,margin",
    "clt": "p,n,estimate,std_err,c_p",
    "optimize": "p,n,engine,record,iteration,value,err_bound,converged,coords",
}


def run_cli(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSchemas:
    def test_headers_are_frozen(self):
        for cmd, header in EXPECTED_HEADERS.items():
            assert ",".join(SCHEMAS[cmd]) == header

    def test_validator_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            validate_output("kernel", {"subcommand": "kernel", "rows": [{"p": "4.0"}]})
        with pytest.raises(ValueError):
            validate_output("kernel", {"subcommand": "volume", "rows": []})


class TestVolume:
    def test_closed_two_equal_exact_row(self, capsys):
        code, out = run_cli(["volume", "--p", "4", "--a2", "3", "--engine", "closed"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == EXPECTED_HEADERS["volume"]
        assert lines[1] == "closed_form,4.0,3,a2:3,1.4142135623730951,0.0,,"

    def test_quad_routes_small_to_closed(self, capsys):
        code, out = run_cli(["volume", "--p", "inf", "--diag", "2", "--engine", "quad"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[4] == "2.0"

    def test_mc_row_has_samples_and_seed(self, capsys):
        code, out = run_cli(["volume", "--p", "4", "--a2", "2", "--engine", "mc",
                             "--samples", "20000", "--seed", "7"], capsys)
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert cells[0] == "montecarlo" and cells[6] == "20000" and cells[7] == "7"

    def test_float_cells_round_trip(self, capsys):
        code, out = run_cli(["volume", "--p", "3", "--a", "0.8,0.6", "--engine", "closed"], capsys)
        cells = out.strip().split("\n")[1].split(",")
        v = float(cells[4])
        assert repr(v) == cells[4]

    def test_usage_errors(self, capsys):
        assert run_cli(["volume", "--p", "0.5", "--a2", "2", "--engine", "closed"], capsys)[0] == 2
        assert run_cli(["volume", "--p", "4", "--engine", "closed"], capsys)[0] == 2
        assert run_cli(["volume", "--p", "4", "--a2", "2", "--diag", "3",
                        "--engine", "closed"], capsys)[0] == 2
        assert run_cli(["volume", "--p", "4", "--diag", "3", "--engine", "closed"], capsys)[0] == 2
        assert run_cli(["volume", "--p", "4", "--a2", "2", "--engine", "warp"], capsys)[0] == 2

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        from lpsections.hankel import NonConvergenceError

        def boom(*a, **k):
            raise NonConvergenceError("synthetic")

        monkeypatch.setattr(cli, "section_volume_quadrature", boom)
        code, _ = run_cli(["volume", "--p", "4", "--diag", "3", "--engine", "quad"], capsys)
        assert code == 3

    def test_huge_p_exits_3(self, capsys):
        # the kernel quadrature has no radial cell left at this p: a
        # non-convergence exit naming p, not a traceback
        code = cli.main(["volume", "--p", "1e20", "--diag", "3", "--engine", "quad"])
        assert code == 3
        assert "p=1e+20" in capsys.readouterr().err

    def test_tail_overflow_exits_3(self, capsys):
        # the outer tail bound overflowed a double and exited 1 with a
        # traceback.  The cutoff it certifies is now past any panel budget,
        # and the outer rule's bound must overflow quietly on the way; at
        # 1e-308 the cutoff itself is past the double range
        for tiny, refusal in (("1e-200", "outer panel budget 40000 exhausted at s_max "),
                              ("1e-300", "outer panel budget 40000 exhausted at s_max "),
                              ("1e-308", "outer tail bound cannot reach tol_abs/2")):
            code = cli.main(["volume", "--p", "4", "--a", f"1,{tiny},{tiny}", "--engine", "quad"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (3, "")
            assert captured.err.count("\n") == 1
            assert refusal in captured.err


class TestDimensionLimit:
    # a dimension past its limit is refused before anything is allocated;
    # 3e8 used to exit 4 with a MemoryError under a 2 GB limit, and so did
    # optimize --n 100000 (the simplex grows as n^2)
    @pytest.mark.parametrize("argv", [
        ["volume", "--p", "4", "--diag", "{n}", "--engine", "quad", "--tol", "1e-3"],
        ["volume", "--p", "4", "--a2", "{n}", "--engine", "closed"],
        ["clt", "--p", "4", "--n-list", "4,{n}", "--samples", "32"],
        ["optimize", "--p", "4", "--n", "{n}", "--engine", "quad"],
    ])
    def test_past_the_limit_is_usage_error(self, argv, capsys):
        limit = cli.OPTIMIZE_MAX_DIMENSION if argv[0] == "optimize" else cli.MAX_DIMENSION
        argv = [a.format(n=limit + 1) for a in argv]
        t0 = time.perf_counter()
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1 and str(limit) in captured.err
        assert time.perf_counter() - t0 < 2.0

    def test_the_limit_itself_is_accepted(self, capsys):
        code, out = run_cli(["volume", "--p", "4", "--a2", str(cli.MAX_DIMENSION), "--engine", "closed"], capsys)
        assert code == 0 and out.splitlines()[1].split(",")[2] == str(cli.MAX_DIMENSION)


class TestKernelTable:
    def test_rows_and_header(self, capsys):
        code, out = run_cli(["kernel", "--p", "inf", "--s-max", "2", "--step", "0.5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == EXPECTED_HEADERS["kernel"]
        assert len(lines) == 1 + 5  # s = 0, 0.5, 1.0, 1.5, 2.0
        assert lines[1].split(",")[1:3] == ["0.0", "1.0"]

    def test_grid_is_multiples_of_step(self, capsys):
        # a running sum s += step drifted to 24.300000000001 and lost the row at 24.31
        code, out = run_cli(["kernel", "--p", "inf", "--s-max", "24.31", "--step", "0.01"], capsys)
        assert code == 0
        s = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert s == [k * 0.01 for k in range(2432)]

    def test_non_finite_grid_is_usage_error(self, capsys):
        # an infinite --s-max never ended, and nan printed a table
        for flag, other in (("--s-max", ("--step", "1")), ("--step", ("--s-max", "3"))):
            for bad in ("inf", "nan"):
                code, out = run_cli(["kernel", "--p", "4", flag, bad, *other], capsys)
                assert (code, out) == (2, "")

    def test_row_cap_is_usage_error(self, capsys):
        # past 2^53 steps `s += step` stops moving s, and 1e300 rows never end
        for argv in (["kernel", "--p", "inf", "--s-max", "1e17", "--step", "1"],
                     ["kernel", "--p", "4", "--s-max", "1", "--step", "1e-300"]):
            t0 = time.perf_counter()
            assert run_cli(argv, capsys) == (2, "")
            assert time.perf_counter() - t0 < 2.0

    def test_bad_tol_is_usage_error(self, capsys):
        # nan used to exit 3 and a zero or negative --tol was silently
        # floored to 1e-12; small positive values keep that floor
        for bad in ("nan", "inf", "0", "-1"):
            argv = ["kernel", "--p", "4", "--s-max", "2", "--step", "0.5", "--tol", bad]
            assert run_cli(argv, capsys) == (2, "")
        argv = ["kernel", "--p", "inf", "--s-max", "1", "--step", "0.5", "--tol", "1e-20"]
        assert run_cli(argv, capsys)[0] == 0
        # every --tol keeps the rule, also where no quadrature reads it
        mc = ["--engine", "mc", "--samples", "1000"]
        quad = ["--engine", "quad"]
        for argv in (["volume", "--p", "4", "--diag", "3", *mc, "--tol", "nan"],
                     ["volume", "--p", "4", "--a2", "3", "--engine", "closed", "--tol", "-1"],
                     ["verify", "--suite", "lemma1", "--tol", "nan"],
                     ["optimize", "--p", "4", "--n", "2", *quad, "--budget", "8", "--tol", "nan"],
                     ["optimize", "--p", "4", "--n", "2", *quad, "--budget", "8", "--tol", "-1"]):
            assert run_cli(argv, capsys) == (2, "")

    def test_small_s_within_bound_of_series(self, capsys):
        # the truncation bound is tight near s = 0, so err_bound must also
        # cover the rounding of 2/Gamma(1+2/p) and of the panel sums
        from test_hankel import series_kernel

        code, out = run_cli(["kernel", "--p", "1.5", "--s-max", "2e-6", "--step", "1e-6",
                             "--tol", "2e-9"], capsys)
        assert code == 0
        for line in out.strip().split("\n")[2:]:
            _, s, value, err = line.split(",")
            assert abs(float(value) - series_kernel(1.5, float(s))) <= float(err)

    def test_huge_p_exits_3(self, capsys):
        code = cli.main(["kernel", "--p", "1e20", "--s-max", "1", "--step", "0.5"])
        assert code == 3
        assert "p=1e+20" in capsys.readouterr().err


class TestCrossing:
    def test_small_scan(self, capsys):
        code, out = run_cli(["crossing", "--p", "4", "--n-max", "4", "--tol", "1e-3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == EXPECTED_HEADERS["crossing"]
        assert len(lines) == 3  # n = 3, 4


class TestVerify:
    def test_lemma1_suite_passes(self, capsys):
        code, out = run_cli(["verify", "--suite", "lemma1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == EXPECTED_HEADERS["verify"]
        assert all(line.split(",")[6] == "true" for line in lines[1:])

    def test_sufficient_suite_passes(self, capsys):
        code, out = run_cli(["verify", "--suite", "sufficient"], capsys)
        assert code == 0


class TestClt:
    def test_table(self, capsys):
        code, out = run_cli(["clt", "--p", "4", "--n-list", "2,4",
                             "--samples", "4000", "--seed", "1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == EXPECTED_HEADERS["clt"]
        assert len(lines) == 3
        c_p = float(lines[1].split(",")[4])
        assert c_p == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_bad_n_list(self, capsys):
        assert run_cli(["clt", "--p", "4", "--n-list", "2,x"], capsys)[0] == 2


class TestOptimize:
    def test_report_rows(self, capsys):
        code, out = run_cli(["optimize", "--p", "4", "--n", "2", "--engine", "quad",
                             "--budget", "60", "--tol", "1e-3", "--seed", "1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == EXPECTED_HEADERS["optimize"]
        best = lines[-1].split(",")
        assert best[3] == "best"
        assert float(best[5]) == pytest.approx(2.0 ** 0.5, rel=1e-6)
        assert ";" in best[8]

    @pytest.mark.parametrize("n,budget", [(2, 8), (3, 20), (3, 21), (12, 60)])
    def test_best_iteration_within_budget(self, n, budget, capsys):
        # a contraction step used to run past a start's share
        code, out = run_cli(["optimize", "--p", "500", "--n", str(n), "--engine", "quad",
                             "--budget", str(budget)], capsys)
        assert code == 0
        best = out.strip().split("\n")[-1].split(",")
        assert best[3] == "best" and int(best[4]) <= budget

    def test_budget_below_one_simplex_is_usage_error(self, capsys):
        # n = 2 needs n + 2 = 4 evaluations; --budget 0 used to run 19
        for bad in ("0", "-5", "3"):
            argv = ["optimize", "--p", "4", "--n", "2", "--engine", "quad", "--budget", bad]
            assert run_cli(argv, capsys) == (2, "")


class TestJsonOutput:
    def test_round_trips_schema(self, capsys):
        code, out = run_cli(["kernel", "--p", "4", "--s-max", "1", "--step", "0.5",
                             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate_output("kernel", payload)

    def test_volume_json(self, capsys):
        code, out = run_cli(["volume", "--p", "9", "--a2", "4", "--engine", "closed",
                             "--format", "json"], capsys)
        payload = json.loads(out)
        validate_output("volume", payload)
        assert payload["rows"][0]["value"] == 2.0 ** (1.0 - 2.0 / 9.0)


class TestFlags:
    # subcommand: (a valid command line, flags its handler reads, flags it does not declare)
    CASES = {
        "volume": (["volume", "--p", "4", "--a2", "3", "--engine", "closed"],
                   ["--tol", "1e-6", "--seed", "3", "--samples", "1000"], []),
        "kernel": (["kernel", "--p", "inf", "--s-max", "1", "--step", "0.5"],
                   ["--tol", "1e-6"], ["--seed", "--samples"]),
        "crossing": (["crossing", "--p", "4", "--n-max", "3"],
                     ["--tol", "1e-3"], ["--seed", "--samples"]),
        "verify": (["verify", "--suite", "lemma1"],
                   ["--tol", "1e-3"], ["--seed", "--samples"]),
        "clt": (["clt", "--p", "inf", "--n-list", "2"],
                ["--seed", "3", "--samples", "1000"], ["--tol"]),
        "optimize": (["optimize", "--p", "4", "--n", "2", "--engine", "quad", "--budget", "8"],
                     ["--tol", "0.1", "--seed", "1"], ["--samples"]),
    }

    @pytest.mark.parametrize("subcommand", list(CASES))
    def test_only_read_flags_parse(self, subcommand, capsys):
        argv, read, unread = self.CASES[subcommand]
        code, out = run_cli(argv + read, capsys)
        assert code == 0 and out.startswith(EXPECTED_HEADERS[subcommand])
        for flag in unread:
            assert run_cli(argv + [flag, "9"], capsys) == (2, "")


class TestBadInput:
    MC = ["--engine", "mc", "--samples", "100"]
    CASES = [
        # seeds must lie in [0, 2^64): McSpec and the optimizer's RngStream
        # both reject the rest, and lpsec names the flag
        (["volume", "--p", "4", "--diag", "3", *MC, "--seed", "-1"], "--seed"),
        (["volume", "--p", "4", "--diag", "3", *MC, "--seed", str(2 ** 64)], "--seed"),
        (["clt", "--p", "4", "--n-list", "2", "--samples", "1000", "--seed", "-1"], "--seed"),
        (["optimize", "--p", "4", "--n", "2", "--engine", "quad", "--budget", "8", "--seed", str(2 ** 64)],
         "--seed"),
        # an infinite tolerance failed deep inside the engine
        (["volume", "--p", "4", "--diag", "3", "--engine", "quad", "--tol", "inf"], "--tol"),
        (["crossing", "--p", "4", "--n-max", "3", "--tol", "inf"], "--tol"),
        # the optimizer runs on quadrature only
        (["optimize", "--p", "4", "--n", "3", "--engine", "mc", "--budget", "15"], "--engine"),
    ]

    @pytest.mark.parametrize("argv,named", CASES, ids=[f"{c[0]}#{i}" for i, (c, _) in enumerate(CASES)])
    def test_usage_error_naming_the_input(self, argv, named, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert named in captured.err

    def test_clt_checks_every_dimension_before_drawing(self, capsys, monkeypatch):
        # the 256 row was estimated before n = 1 was rejected
        from lpsections import montecarlo as mc
        calls = []
        monkeypatch.setattr(mc, "estimate_section_volume", lambda *a: calls.append(a))
        code = cli.main(["clt", "--p", "4", "--n-list", "256,1", "--samples", "400000"])
        captured = capsys.readouterr()
        assert (code, captured.out, calls) == (2, "", [])
        assert captured.err.count("\n") == 1

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        # it printed a traceback and exited 1, the failed-suite code
        def boom(args):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(cli, "_cmd_clt", boom)
        code = cli.main(["clt", "--p", "4", "--n-list", "2", "--samples", "1000"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == "internal error: RuntimeError: synthetic\n"


class TestOutputPath:
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path):
        argv = ["volume", "--p", "4", "--a2", "3", "--engine", "closed", "--output-path"]
        for path in (tmp_path / "missing" / "x.csv", tmp_path):
            assert cli.main(argv + [str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestExtremeExponents:
    """Every engine on a few directions at the ends of the exponent range
    either answers or exits with a documented code and one stderr line."""

    P = ["1", "1.0000001", "1.05", "2", "1e4", "1e14", "1e300", "inf"]
    DIRECTIONS = [["--a", "0.8,0.6"], ["--diag", "3"], ["--a", "1,0.5,1e-3"]]
    ENGINES = [["--engine", "closed"], ["--engine", "quad", "--tol", "1e-2"],
               ["--engine", "mc", "--samples", "64"]]
    CASES = [["volume", "--p", p, *d, *e] for p, d, e in itertools.product(P, DIRECTIONS, ENGINES)]

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(c[2:]) for c in CASES])
    def test_documented_exit(self, argv, capsys):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
        assert err.count("\n") <= 1
        assert elapsed < 2.0


class TestDeterminism:
    CASES = [
        ["volume", "--p", "4", "--a2", "3", "--engine", "closed"],
        ["volume", "--p", "4", "--diag", "3", "--engine", "quad", "--tol", "1e-4"],
        ["volume", "--p", "4", "--diag", "3", "--engine", "mc", "--samples", "20000",
         "--seed", "5"],
        ["kernel", "--p", "9", "--s-max", "3", "--step", "1"],
        ["crossing", "--p", "4", "--n-max", "4", "--tol", "1e-3"],
        ["verify", "--suite", "lemma1"],
        ["clt", "--p", "4", "--n-list", "2,4", "--samples", "4000", "--seed", "3"],
        ["optimize", "--p", "3", "--n", "2", "--engine", "quad", "--budget", "40",
         "--tol", "1e-2", "--seed", "2"],
        ["clt", "--p", "inf", "--n-list", "2,3", "--samples", "2000", "--format", "json"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(c[:2]) + f"#{i}" for i, c in enumerate(CASES)])
    def test_rerun_byte_identical(self, argv, capsys, tmp_path):
        f1 = tmp_path / "run1.out"
        f2 = tmp_path / "run2.out"
        assert cli.main(argv + ["--output-path", str(f1)]) == cli.main(argv + ["--output-path", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()
        capsys.readouterr()
