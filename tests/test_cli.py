import hashlib
import json
import logging
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nullgrid import oracle, poly, transform
from nullgrid.cli import main
from nullgrid.ring import RingSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_json(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x^2 - 4*x*y + y^2\n")
    code, out = run_cli(capsys, "analyze", "--ring", "int", "--vars", "x,y", poly)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["polynomial"] == "x^2 - 4*x*y + y^2"
    conds = {row["condition"] for row in data["hypotheses"]}
    assert conds == {
        "maximal-monomial", "lex-largest", "successively-largest",
        "d-leading", "partial-degrees", "total-degree",
    }
    assert all(row["holds"] for row in data["hypotheses"])


def test_analyze_infers_variables(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x2^3 + x1\n")
    code, out = run_cli(capsys, "analyze", poly)
    assert code == 0
    assert json.loads(out)["vars"] == ["x1", "x2"]


def test_verify_golden_ellipse(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x^2 - 4*x*y + y^2\n")
    grid = write(tmp_path, "g.txt", "0,1,2,3,4\n0,1,2,3,4\n")
    code, out = run_cli(capsys, "verify", "--ring", "int", "--vars", "x,y",
                        "--grid", grid, "--list-zeros", poly)
    assert code == 0
    data = json.loads(out)
    assert data["grid_size"] == 25
    assert data["nonzero_count"] == 24
    assert data["zero_count"] == 1
    assert data["zeros"] == [[0, 0]]
    assert data["all_guaranteed_sound"] is True
    assert all(c["sound"] for c in data["checks"])
    # deterministic byte-for-byte
    code2, out2 = run_cli(capsys, "verify", "--ring", "int", "--vars", "x,y",
                          "--grid", grid, "--list-zeros", poly)
    assert out2 == out


def test_verify_reports_diagnostic_miss(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x*y^3 + x^2*y^2 + 3*x^3*y\n")
    grid = write(tmp_path, "g.txt", "0,1,2,3,4\n0,1,2,3,4\n")
    code, out = run_cli(capsys, "verify", "--ring", "fp:5", "--vars", "x,y",
                        "--grid", grid, poly)
    assert code == 0
    data = json.loads(out)
    assert data["nonzero_count"] == 8
    assert data["all_guaranteed_sound"] is True
    misses = [c for c in data["checks"] if not c["sound"]]
    assert misses and all(c["bound"]["name"] == "product-if-maximal" for c in misses)


def test_bounds_gen_alon_furedi(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x^5*y^2 + x*y^2\n")
    grid = write(tmp_path, "g.txt", "0,1,2,3,4,5,6,7\n0,1,2,3,4,5,6,7\n")
    code, out = run_cli(capsys, "bounds", "--ring", "int", "--vars", "x,y",
                        "--grid", grid, poly)
    assert code == 0
    rows = json.loads(out)["bounds"]
    gaf = [r for r in rows if r["name"] == "gen-alon-furedi"]
    assert gaf and gaf[0]["value"] == 18
    assert gaf[0]["argmin"] == [3, 6]
    assert gaf[0]["witness_d"] == [5, 2]


def test_trim_json(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x^5 + 2*x^2 + 1\n")
    grid = write(tmp_path, "g.txt", "0,1,2\n")
    code, out = run_cli(capsys, "trim", "--ring", "fp:7", "--vars", "x",
                        "--grid", grid, poly)
    assert code == 0
    data = json.loads(out)
    assert data["trimmed"] == "3*x^2 + 1"
    assert data["degrees_after"] == [2]


def test_coeff_json(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x^2 - 4*x*y + y^2\n")
    grid = write(tmp_path, "g.txt", "0,1,2,3\n0,1,2\n")
    code, out = run_cli(capsys, "coeff", "--ring", "fp:7", "--vars", "x,y",
                        "--grid", grid, "--monomial", "1,1", poly)
    assert code == 0
    data = json.loads(out)
    assert data["coefficient"] == 3
    assert data["stored_coefficient"] == 3


def test_pit_json_fraction_encoding(tmp_path, capsys):
    code, out = run_cli(capsys, "pit", "(x + y)^2", "x^2 + 2*x*y + y^2",
                        "--samples", "50", "--trials", "20")
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["status"] == "all-zero"
    # Fraction(2,50)^20 in lowest terms
    assert verdict["failure_bound"] == "1/" + str(25 ** 20)
    assert verdict["degree_bound"] == 2


def test_pit_witness(tmp_path, capsys):
    code, out = run_cli(capsys, "pit", "x^2 - y^2", "(x + y)*(x - y - 1)",
                        "--samples", "50")
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["status"] == "nonzero-witnessed"
    assert verdict["point"] is not None


def test_pit_refuses_trials_past_the_work_budget(capsys):
    # 10^6 trials of a 7-node difference DAG: 7·10^6 node evaluations,
    # refused before any point is drawn
    start = time.perf_counter()
    code, out = run_cli(capsys, "pit", "(x+y)^3", "(y+x)^3", "--ring", "fp:101",
                        "--samples", "100", "--trials", "1000000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert "7000000 node evaluations, limit is 4000000" in error["message"]


def test_bounds_charges_the_alon_furedi_table(capsys):
    # three sides of 1001: the table takes 1001 (1 + 1001 + 2001) =
    # 3,006,003 steps, within the budget; a fourth side takes it to
    # 1001 (1 + 1001 + 2001 + 3001) = 6,010,004 and is refused at once
    code, out = run_cli(capsys, "bounds", "--ring", "fp:10007", "--poly", "x^1000*y^1000*z^1000 + 1",
                        "--grid", "0..1000;0..1000;0..1000")
    assert code == 0
    [entry] = [b for b in json.loads(out)["bounds"] if b["name"] == "gen-alon-furedi"]
    assert (entry["value"], entry["argmin"]) == (1, [1, 1, 1])
    start = time.perf_counter()
    code, out = run_cli(capsys, "bounds", "--ring", "fp:10007", "--poly", "x^1000*y^1000*z^1000*w^1000 + 1",
                        "--grid", "0..1000;0..1000;0..1000;0..1000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert "4 variables needs 6010004 steps, limit is 4000000" in error["message"]


def test_puzzle_local_refuses_a_negative_budget(capsys):
    code, out = run_cli(capsys, "puzzle", "local", "--size", "2", "--budget", "-5")
    assert code == 1
    assert json.loads(out)["error"]["message"] == "budget must be nonnegative"


def test_puzzle_exhaustive_json(capsys):
    code, out = run_cli(capsys, "puzzle", "exhaustive", "--size", "2",
                        "--range", "3", "--budget", "100000000")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["k22_free"] is True
    assert data["zarankiewicz_cap"] == 3
    assert data["examined"] == 3087


def test_puzzle_local_deterministic(capsys):
    args = ("puzzle", "local", "--size", "3", "--budget", "20000", "--seed", "7")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["count"] >= 5


def test_tightness_json(tmp_path, capsys):
    grid = write(tmp_path, "g.txt", "0,1,2,3\n0,1,2\n")
    code, out = run_cli(capsys, "tightness", "--ring", "fp:11",
                        "--grid", grid, "--d", "2,1")
    assert code == 0
    data = json.loads(out)
    assert data["slack"] == 0
    assert data["nonzero_count"] == data["product_value"] == 4


def test_text_format(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x + 1\n")
    code, out = run_cli(capsys, "--format", "text", "analyze",
                        "--ring", "int", "--vars", "x", poly)
    assert code == 0
    assert "polynomial: x + 1" in out


def test_exit_usage_on_bad_ring(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x\n")
    code, out = run_cli(capsys, "analyze", "--ring", "fp:6", "--vars", "x", poly)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "usage"


def test_exit_usage_on_parse_error(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x +* y\n")
    code, out = run_cli(capsys, "analyze", "--vars", "x,y", poly)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "parse"
    assert "position" in err["message"]


def test_exit_usage_on_unknown_flag(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x\n")
    code, out = run_cli(capsys, "analyze", "--no-such-flag", poly)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "usage"


def test_exit_hypothesis_violation(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x^5 + 1\n")
    grid = write(tmp_path, "g.txt", "0,2,4\n")
    code, out = run_cli(capsys, "trim", "--ring", "zmod:6", "--vars", "x",
                        "--grid", grid, poly)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "hypothesis-violation"


def test_exit_resource_limits(tmp_path, capsys):
    code, out = run_cli(capsys, "puzzle", "exhaustive", "--size", "3",
                        "--range", "10", "--budget", "1000")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "resource-limit"

    poly = write(tmp_path, "f.txt", "x*y\n")
    grid = write(tmp_path, "g.txt", ",".join(str(i) for i in range(100)) + "\n"
                 + ",".join(str(i) for i in range(100)) + "\n")
    code, out = run_cli(capsys, "verify", "--ring", "int", "--vars", "x,y",
                        "--grid", grid, "--limit-grid", "9999", poly)
    assert code == 3
    assert json.loads(out)["error"]["code"] == "resource-limit"


def test_missing_grid_is_usage_error(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x\n")
    code, out = run_cli(capsys, "trim", "--ring", "int", "--vars", "x", poly)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "usage"


def test_inline_poly_and_grid(tmp_path, capsys):
    code, out = run_cli(capsys, "verify", "--ring", "int",
                        "--poly", "x^2 - 4*x*y + y^2", "--grid", "0..4;0..4")
    assert code == 0
    data = json.loads(out)
    assert data["nonzero_count"] == 24

    # inline and file forms agree byte for byte
    poly = write(tmp_path, "f.txt", "x^2 - 4*x*y + y^2\n")
    grid = write(tmp_path, "g.txt", "0,1,2,3,4\n0,1,2,3,4\n")
    code, out2 = run_cli(capsys, "verify", "--ring", "int", "--vars", "x,y",
                         "--grid", grid, poly)
    assert code == 0
    assert out2 == out


def test_poly_file_and_inline_conflict(tmp_path, capsys):
    poly = write(tmp_path, "f.txt", "x\n")
    code, out = run_cli(capsys, "analyze", "--poly", "x", poly)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "usage"

    code, out = run_cli(capsys, "analyze")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "usage"


def test_console_script_entry_point(tmp_path):
    poly = tmp_path / "f.txt"
    poly.write_text("x^2 + 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "nullgrid", "analyze", "--ring", "int",
         "--vars", "x", str(poly)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).resolve().parents[1])))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == 1


def test_verify_list_zeros_counts_the_grid_once(capsys, monkeypatch):
    calls = []
    real = oracle.count_nonzeros

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "count_nonzeros", counting)
    code, out = run_cli(capsys, "verify", "--ring", "fp:5", "--grid", "0..2;1..2",
                        "--list-zeros", "--poly", "x*y - x")
    assert code == 0
    assert len(calls) == 1
    data = json.loads(out)
    assert (data["grid_size"], data["nonzero_count"], data["zero_count"]) == (6, 2, 4)
    assert data["zeros"] == [[0, 1], [0, 2], [1, 1], [2, 1]]
    # digest of this output as printed when verify still counted the grid twice
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "889c01f030b92ef2a074d59decf79ad0f536eb5d71ab46f9eae070b8f6d5ce9b")


def test_verify_huge_grid_range_is_a_resource_error(capsys):
    # one element over the cap, so the range is never built
    code, out = run_cli(capsys, "verify", "--grid", "0..1000000", "--poly", "x")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert len(error["message"]) < 200


def test_expansion_over_budget_is_a_resource_error(capsys):
    code, out = run_cli(capsys, "analyze", "--vars", "x,y", "--poly", "(x+y)^1000000")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert "power 1000000" in error["message"]
    assert len(error["message"]) < 200


def test_expansion_over_z_is_charged_for_its_coefficients(capsys):
    # its term products alone fit the budget; its ~3000-bit coefficients do not
    start = time.perf_counter()
    code, out = run_cli(capsys, "analyze", "--ring", "int", "--poly", "(x+y)^3000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(out)["error"]["code"] == "resource-limit"


@pytest.mark.usefixtures("numpy_counted_as_loaded")
def test_verbose_logs_to_stderr_and_leaves_stdout_alone(capsys):
    # with numpy counted as loaded, the kernel runs
    argv = ["verify", "--ring", "fp:101", "--grid", "0..31;0..31", "--poly", "x*y + 1"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert main(["-v", *argv]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert quiet.err == ""
    assert "nullgrid.oracle: grid evaluation path=kernel" in loud.err
    assert "nullgrid.analysis: classify terms=2" in loud.err
    logger = logging.getLogger("nullgrid")
    assert logger.level == logging.NOTSET
    assert not any(isinstance(h, logging.StreamHandler) for h in logger.handlers)


def test_verbose_prints_one_classify_record_per_walk(capsys):
    # collect_bounds walks the hypotheses without calling classify; the walk
    # still logs its one record, under the same name and fields
    for command in ("bounds", "verify"):
        assert main(["-v", command, "--ring", "int", "--grid", "0..4;0..4", "--poly", "x^2 - 4*x*y + y^2"]) == 0
        records = [line for line in capsys.readouterr().err.splitlines() if "classify" in line]
        assert records == ["nullgrid.analysis: classify terms=3 orders=2 reports=19 d_leading=6"]


def test_verbose_text_output_and_errors_are_unchanged(capsys):
    for argv in (["--format", "text", "tightness", "--ring", "fp:5", "--grid", "0..4;0..4", "--d", "2,3"],
                 ["verify", "--ring", "zmod:6", "--grid", "0,2;0,1", "--poly", "x"]):
        code = main(argv)
        quiet = capsys.readouterr().out
        assert main(["-v", *argv]) == code
        assert capsys.readouterr().out == quiet


def test_verify_on_millions_of_failing_pairs_exits_fast(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "verify", "--ring", "zmod:1000000", "--grid", "0..2999;0..1",
                        "--poly", "x+y")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        "grid fails the zero-divisor difference condition: "
        "S_1 contains 0 and 2 with zero-divisor difference 999998; "
        "S_1 contains 0 and 4 with zero-divisor difference 999996; "
        "S_1 contains 0 and 5 with zero-divisor difference 999995; and 2698497 more")


@pytest.mark.parametrize("argv", [
    ["trim", "--ring", "fp:10007", "--grid", "0..9999", "--poly", "x^10000"],
    ["tightness", "--ring", "fp:10007", "--grid", "0..4999", "--d", "5000"],
], ids=["trim", "tightness"])
def test_annihilator_over_its_budget_is_a_resource_error(capsys, argv):
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert "prod(x - a)" in error["message"] and len(error["message"]) < 200


@pytest.mark.parametrize("n,refused", [(1000, "reference evaluation needs 1000 points"),
                                        (1500, "prod(x - a) over 1500 elements")])
def test_integer_tightness_past_a_budget_exits_fast(capsys, n, refused):
    # n + 1 coefficients of thousands of bits: the kernel would need more
    # than its 16 word primes, and the reference would take minutes
    start = time.perf_counter()
    code, out = run_cli(capsys, "tightness", "--ring", "int", "--grid", f"0..{n - 1}", "--d", str(n))
    assert time.perf_counter() - start < 1
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert error["message"].startswith(refused)


@pytest.mark.parametrize("argv,refused", [
    (["trim", "--ring", "fp:10007", "--grid", "0..999", "--poly", "x^60000"], "reducing x1^60000"),
    (["trim", "--ring", "int", "--grid", "0..99", "--poly", "x^5000"], "reducing x1^5000"),
    # 65537 * 65539 resists trial division below 2^16: 49,995,000 pairs to compare
    (["verify", "--ring", "zmod:4295229443", "--grid", "0..9999", "--poly", "x"], "checking the grid"),
], ids=["trim-fp", "trim-int", "verify-unfactored"])
def test_unbounded_reduction_and_grid_check_exit_fast(capsys, argv, refused):
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert error["message"].startswith(refused) and len(error["message"]) < 200


def test_trim_refuses_a_reduction_before_building_its_annihilator(capsys, monkeypatch):
    # 59,001 pops x 1 rest x 999 possibly nonzero r_j (0 is in S, so r_0 = 0)
    def refuse(*args):
        raise AssertionError("the annihilator was built")

    monkeypatch.setattr(poly, "annihilator", refuse)
    monkeypatch.setattr(transform, "annihilator", refuse)
    code, out = run_cli(capsys, "trim", "--ring", "fp:10007", "--poly", "x^60000", "--grid", "0..999")
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "reducing x1^60000 modulo 1000 elements needs 58941999 products, limit is 4000000")


def test_trim_on_all_of_a_prime_field_charges_one_replacement(capsys):
    # prod (x - a) over all of F_101 is x^101 - x, so each pop adds one product
    code, out = run_cli(capsys, "trim", "--ring", "fp:101", "--grid", "0..100", "--poly", "x^41000")
    assert code == 0
    assert json.loads(out)["trimmed"] == "x^100"


def test_coeff_on_a_grid_over_the_value_cap_is_a_resource_error(capsys):
    # 1001 x 1000 points, one row over oracle.DEFAULT_ZERO_SET_CAP
    start = time.perf_counter()
    code, out = run_cli(capsys, "coeff", "--ring", "fp:1000003", "--grid", "0..1000;0..999",
                        "--monomial", "1,1", "--poly", "x*y")
    assert time.perf_counter() - start < 0.5
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert error["message"] == "grid has 1001000 points, value limit is 1000000"


@pytest.mark.parametrize("ring,monomial,code,message", [
    ("int", "1,1", 1, "coefficient extraction needs a prime field"),
    ("fp:10007", "1000,1", 2, "need |S_1| > d_1, got 1000 <= 1000"),
    ("fp:10007", "-1,1", 1, "negative degree -1"),
], ids=["int", "degree", "negative"])
def test_coeff_checks_its_preconditions_before_evaluating_the_grid(capsys, monkeypatch, ring, monomial,
                                                                   code, message):
    def refuse(*args):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(transform, "grid_values", refuse)
    got, out = run_cli(capsys, "coeff", "--ring", ring, "--grid", "0..999;0..999", f"--monomial={monomial}",
                       "--poly", "x*y + 1")
    assert got == code
    assert json.loads(out)["error"]["message"] == message


def test_a_rendered_20000_term_file_reads_back_in_trim_and_verify(tmp_path):
    # a flat sum of T terms once expanded in O(T^2) term copies: over a
    # minute here, where it now takes a few seconds
    rng = random.Random(20000)
    f10007 = RingSpec.prime_field(10007)
    terms = {}
    while len(terms) < 20000:
        terms[(rng.randrange(400), rng.randrange(400))] = rng.randrange(1, 10007)
    text = poly.Polynomial(2, f10007, terms).render(["x", "y"])
    path = write(tmp_path, "f.txt", text + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).resolve().parents[1]))
    for command in ("trim", "verify"):
        proc = subprocess.run([sys.executable, "-m", "nullgrid", command, "--ring", "fp:10007",
                               "--grid", "0..19;0..19", path], capture_output=True, text=True, env=env, timeout=40)
        assert proc.returncode in (0, 3), proc.stderr
        if proc.returncode == 0:
            assert json.loads(proc.stdout)["polynomial"] == text


# (argv, exit code, sha256 of stdout), recorded before integer grid values
# moved into the kernel and the annihilator got one builder
GOLDEN = [
    (["analyze", "--ring", "int", "--poly", "x^2 - 4*x*y + y^2"], 0,
     "378fbf7073da55a4cdfcbf3477481cd791c41f0abf698232940f66c2f9cf7279"),
    (["--format", "text", "analyze", "--ring", "fp:7", "--poly", "3*x^3*y + x*y^2 + 5"], 0,
     "348f03c37d222ea6c75062546d8e5c38c9b396dbe0bfc1c1a1898053d42330cb"),
    (["bounds", "--ring", "fp:7", "--grid", "0..4;0..3", "--poly", "x^3*y + 2*x*y^2 + 1"], 0,
     "f8642f9a7447f3d6355abd00988f18e8e1b1169af4296a941b2b4363431811d2"),
    (["verify", "--ring", "int", "--grid", "0..4;0..4", "--list-zeros",
      "--poly", "x^2 - 4*x*y + y^2"], 0,
     "31eccf6efc4d11f29029e4bd2e23a527b8ec53020cf72187510fb00e8aee6431"),
    (["verify", "--ring", "zmod:35", "--grid", "0,1,3;0..2", "--list-zeros", "--poly", "x*y - x + 6"], 0,
     "58ada019d8b5d2a89513c99415e6b202029e104c38f252be9feed9ea24b67292"),
    (["--format", "text", "verify", "--ring", "fp:5", "--grid", "0..4;0..4",
      "--poly", "x*y^3 + x^2*y^2 + 3*x^3*y"], 0,
     "a9b84f6b82c8d5c80f42a72fcb9264d48897a441a1205edbaf41c876e29e4983"),
    (["trim", "--ring", "int", "--grid", "0..3;-1..2", "--poly", "x^5*y^4 - 3*x^2*y + 7"], 0,
     "dc85ba6a619fd9a2c402a313be18b3a15b43e2d0d9099e9cad6076112e1aac81"),
    (["trim", "--ring", "zmod:35", "--grid", "0,1,3;2,5", "--poly", "(x + 2*y)^4 - 1"], 0,
     "c674bd2252c676f304e9adb8e81bd6c0205763cc3cf5a902360c2d84b928e0a6"),
    (["coeff", "--ring", "fp:11", "--grid", "0..4;0..3", "--monomial", "2,1",
      "--poly", "x^2*y - 4*x*y + y^3"], 0,
     "adce8ccb921e2d8b4ad1b41e0b9d5c1a92fec309abeab3b017189b81784b1061"),
    (["pit", "(x + y)^2", "x^2 + 2*x*y + y^2", "--samples", "50", "--trials", "20"], 0,
     "1ac8271adc7e2f9baf6bac3ab5da1849a6b87d5f4d8f46b76b42466cdd95a972"),
    (["--format", "text", "pit", "x^2 - y^2", "(x + y)*(x - y - 1)", "--samples", "50"], 0,
     "c9b2b0e7766ab8e3d39c2bb9ea595586b5e4f47d5f47e28f68326e27ae7a3eb9"),
    (["puzzle", "exhaustive", "--size", "2", "--range", "3", "--budget", "100000000"], 0,
     "e774d775d7e3b2bd8ec41caf3f7c8eadcc21238cd3e1e9f7830266375a61259e"),
    (["puzzle", "local", "--size", "3", "--budget", "2000", "--seed", "3"], 0,
     "353dff101e6e63e0e958e3011fd0167b0c0f38e8f515950fc5a822924b5e659c"),
    (["tightness", "--ring", "int", "--grid=-2..3;0..2;5,7", "--d", "3,1,2"], 0,
     "666d7cc7a5ec1dae0ddce18ef29047733348b40c16f2b261fb1d0823b9869917"),
    (["--format", "text", "tightness", "--ring", "fp:11", "--grid", "0..3;0..2", "--d", "2,1"], 0,
     "7265270485f4dee09bfff200baf01737c63eb84806c055c395728c4a95d40cea"),
    (["analyze", "--ring", "fp:6", "--poly", "x"], 1,
     "e369c37c97c151882aea3984d53b99452696d08e4749fb6b2cd15fb6825ff92a"),
    (["trim", "--ring", "zmod:6", "--grid", "0,2,4", "--poly", "x^5 + 1"], 2,
     "081bebeda274a5bae1b618c3f452bc96eee228e26bd4a57181d946fa8e754dd1"),
    (["--format", "text", "verify", "--grid", "0..99;0..99", "--limit-grid", "9999", "--poly", "x*y"], 3,
     "f73a3149353b9afaade38245f89489ff72dbd18513e6291f7bc640ddf6aec82c"),
    # dense powers with 1,244-2,267 bound entries, some witnesses too large for
    # the grid: these pin every assumption text and the entry order, and were
    # recorded before collect_bounds read the witness tuples directly
    (["bounds", "--grid", "0..6;0..7;-3..4", "--ring", "fp:101", "--poly", "(x+2*y+3*z+1)^7"], 0,
     "ce80c3b4d783144e1ebacef158f53cae9aa52125a958eeaa064a140dc845b7ee"),
    (["verify", "--grid", "0..6;0..7;-3..4", "--ring", "fp:101", "--poly", "(x+2*y+3*z+1)^7"], 0,
     "e8fe4827206ce7dc3337b6e5427181271bf470f250613c0fc50e44f4256bcd0f"),
    (["bounds", "--grid", "0..4;0..4;0..4;1,2,3,4", "--ring", "zmod:35", "--poly", "(x+2*y+3*z+4*w+1)^4"], 0,
     "ff18f29be52fd07c522def52a89672df963287bfd10c578e80fab28678fe261a"),
    (["verify", "--grid", "0..4;0..4;0..4;1,2,3,4", "--ring", "zmod:35", "--poly", "(x+2*y+3*z+4*w+1)^4"], 0,
     "821c3ef5eeb8fce99b7caf0a30f37292478a9fadb6d03b9428ca376305395992"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0][:3]) for g in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    got, out = run_cli(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
