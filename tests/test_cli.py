"""End-to-end command-line checks via click's test runner."""

import gc
import io
import itertools
import json
import random

import pytest
from click.testing import CliRunner

from kuniform import (
    bush_oa,
    juxtapose,
    parse_ket,
    parse_oa_file,
    permute_columns,
    permute_levels,
    permute_rows,
    rao_min_runs,
    rao_oa,
    write_ket,
    write_oa_file,
)
import kuniform.cli as cli_module
import kuniform.oa as oa_module
from kuniform.cli import main

import oracles


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def write_full_factorial(tmp_path, d, n):
    rows = ["".join(str(v) for v in row)
            for row in itertools.product(range(d), repeat=n)]
    path = tmp_path / f"ff_{d}_{n}.oa"
    path.write_text(f"oa {len(rows)} {n} {d} 1\n" + "\n".join(rows) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# oa
# ---------------------------------------------------------------------------

def test_oa_verify_reports_json(runner, tmp_path):
    bush = invoke(runner, "construct", "bush", "--d", "3", "--k", "2")
    assert bush.exit_code == 0
    path = tmp_path / "bush.oa"
    path.write_text(bush.output)
    result = invoke(runner, "oa", "verify", str(path))
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "strength": 2, "index": 1, "tight": True, "irredundant_at": [1, 2]}


def test_oa_verify_explicit_strength(runner, fixtures_dir):
    path = str(fixtures_dir / "oa_8_5_2_2.oa")
    result = invoke(runner, "oa", "verify", path)
    assert json.loads(result.output) == {
        "strength": 2, "index": 2, "tight": False, "irredundant_at": [1]}
    result = invoke(runner, "oa", "verify", path, "--strength", "1")
    assert json.loads(result.output)["index"] == 4
    result = invoke(runner, "oa", "verify", path, "--strength", "3")
    assert result.exit_code == 2


def test_oa_verify_strength_within_the_header_is_not_scanned_again(
        runner, tmp_path, monkeypatch):
    # parse_oa_file proves the header's strength, so --strength k at or
    # below it is answered by that proof with no second look at the rows;
    # above it the rows are checked.  `calls` lists the strength questions
    # that `oa._strength` is asked and the proof it is given cannot answer
    array = rao_oa(3, 3)
    path = tmp_path / "rao.oa"
    path.write_text(write_oa_file(array))
    calls = []
    real = oa_module._strength

    def spy(grid, d, k, reach=-1, proven=0):
        if not 0 <= k <= proven:
            calls.append(k)
        return real(grid, d, k, reach, proven)

    for module in (oa_module, cli_module):
        monkeypatch.setattr(module, "_strength", spy)
    for k in (0, 1, 2):
        calls.clear()
        result = invoke(runner, "oa", "verify", str(path), "--strength", str(k))
        assert (result.exit_code, calls) == (0, [2])
        assert result.output == oracle_verify_output(array, k)
    calls.clear()
    result = invoke(runner, "oa", "verify", str(path), "--strength", "3")
    assert (result.exit_code, calls) == (2, [2, 3])
    assert result.output == "error: rows do not have strength 3\n"


#: the arrays of the benchmark's catalog workload: (construction, params)
CATALOG = [(bush_oa, (16, 2)), (rao_oa, (16, 2)), (bush_oa, (8, 3)),
           (rao_oa, (2, 6)), (rao_oa, (3, 4)), (bush_oa, (13, 2)),
           (rao_oa, (4, 3)), (bush_oa, (9, 3))]


def oracle_verify_output(array, s):
    """`oa verify` stdout for an array of exact strength s, with
    irredundancy tried by the oracle at every k (it holds at 1..t for some
    t <= s)."""
    r, n, d = array.runs, array.factors, array.levels
    return json.dumps({
        "strength": s, "index": r // d ** s,
        "tight": r == rao_min_runs(n, d, s),
        "irredundant_at": [k for k in range(1, s + 1) if
                           oracles.irredundancy_witness(array.rows, k) is None],
    }) + "\n"


def test_oa_verify_fixtures_match_the_oracle(runner, fixtures_dir):
    # oa_8_5_2_2 is irredundant at 1 only, a strict prefix of 1..s
    for path in sorted(fixtures_dir.glob("*.oa")):
        array = parse_oa_file(path.read_text(encoding="utf-8"))
        s = oracles.naive_max_strength(array.rows, array.levels)
        result = invoke(runner, "oa", "verify", str(path))
        assert result.exit_code == 0, path.name
        assert result.output == oracle_verify_output(array, s), path.name


@pytest.mark.parametrize("construct,params", CATALOG)
def test_oa_verify_catalog_arrays_match_the_oracle(runner, tmp_path,
                                                   construct, params):
    array = construct(*params)
    path = tmp_path / "array.oa"
    path.write_text(write_oa_file(array))
    result = invoke(runner, "oa", "verify", str(path))
    assert result.exit_code == 0
    assert result.output == oracle_verify_output(array, array.strength)


def test_oa_verify_reads_irredundancy_from_one_close_pair_pass(
        runner, tmp_path, fixtures_dir, monkeypatch):
    # neither array is irredundant at its strength: oa_8_4_2_3 (strength 3)
    # has rows at distance 2, and two stacked copies of bush_oa(3, 2)
    # repeat every row.  oa_8_4_2_3 has index unity (8 = 2**3), so the
    # Singleton bound gives its distance with no pass over the pairs; the
    # stacked array takes one close-pair pass at its strength
    calls = []
    real_pairs, real_census = oa_module._close_pairs, oa_module._pair_census

    def spy(grid, k):
        calls.append(k)
        return real_pairs(grid, k)

    def census_spy(grid, reach):
        calls.append("census")
        return real_census(grid, reach)

    monkeypatch.setattr(oa_module, "_close_pairs", spy)
    monkeypatch.setattr(oa_module, "_pair_census", census_spy)
    bush = bush_oa(3, 2)
    stacked = tmp_path / "stacked.oa"
    stacked.write_text(write_oa_file(juxtapose([bush, bush])))
    for path, s, want, passes in (
            (fixtures_dir / "oa_8_4_2_3.oa", 3, [1], []),
            (stacked, 2, [], [2])):
        calls.clear()
        result = invoke(runner, "oa", "verify", str(path))
        assert (result.exit_code, calls) == (0, passes)
        assert json.loads(result.output)["irredundant_at"] == want
        array = parse_oa_file(path.read_text(encoding="utf-8"))
        assert result.output == oracle_verify_output(array, s)


def test_oa_verify_missing_and_malformed_files(runner, tmp_path):
    result = invoke(runner, "oa", "verify", str(tmp_path / "nope.oa"))
    assert result.exit_code == 1
    assert "cannot read" in result.output
    bad = tmp_path / "bad.oa"
    bad.write_text("garbage\n")
    result = invoke(runner, "oa", "verify", str(bad))
    assert result.exit_code == 1


def test_oa_transform_remove_cols(runner, fixtures_dir):
    path = str(fixtures_dir / "oa_4_3_2_2.oa")
    result = invoke(runner, "oa", "transform", path, "--remove-cols", "1")
    assert result.exit_code == 0
    arr = parse_oa_file(result.output)
    assert sorted(arr.rows) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def catalog_text(rows, d):
    """Catalog text whose header states the rows' largest strength."""
    header = (f"oa {len(rows)} {len(rows[0])} {d} "
              f"{oracles.naive_max_strength(rows, d)}\n")
    return header + "".join("".join(oracles.DIGITS36[v] for v in row) + "\n"
                            for row in rows)


def test_oa_transform_remove_cols_states_the_largest_strength(runner,
                                                              fixtures_dir,
                                                              tmp_path):
    # the header is the largest strength of the result, which can exceed
    # the min(k, N') carried by remove_columns: rao_oa(2, 3) less columns
    # 1-4 has strength 3 where min(2, 3) = 2
    rao = tmp_path / "rao.oa"
    rao.write_text(write_oa_file(rao_oa(2, 3)))
    cases = [(rao, (1, 2, 3, 4))]
    for path in sorted(fixtures_dir.glob("*.oa")):
        n = oracles.read_oa_fixture(path)[0][1]
        cases += [(path, drop) for size in range(1, n)
                  for drop in itertools.combinations(range(1, n + 1), size)]
    for path, drop in cases:
        (_, _, d, _), rows = oracles.read_oa_fixture(path)
        result = invoke(runner, "oa", "transform", str(path), "--remove-cols",
                        ",".join(map(str, drop)))
        assert result.exit_code == 0, (path.name, drop)
        want = oracles.remove_columns_rows(rows, [c - 1 for c in drop])
        assert result.output == catalog_text(want, d), (path.name, drop)


def test_oa_transform_derive(runner, fixtures_dir):
    path = str(fixtures_dir / "oa_8_4_2_3.oa")
    result = invoke(runner, "oa", "transform", path, "--derive", "0")
    assert result.exit_code == 0
    arr = parse_oa_file(result.output)
    assert sorted(arr.rows) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_oa_transform_permute_levels(runner, fixtures_dir):
    path = str(fixtures_dir / "oa_2_2_2_1.oa")
    result = invoke(runner, "oa", "transform", path,
                    "--permute-levels", "10,01")
    assert result.exit_code == 0
    assert sorted(parse_oa_file(result.output).rows) == [(0, 0), (1, 1)]


def test_oa_transform_requires_exactly_one_mode(runner, fixtures_dir):
    path = str(fixtures_dir / "oa_2_2_2_1.oa")
    result = invoke(runner, "oa", "transform", path)
    assert result.exit_code == 1
    assert "exactly one" in result.output
    result = invoke(runner, "oa", "transform", path,
                    "--remove-cols", "1", "--derive", "0")
    assert result.exit_code == 1


def test_oa_transform_rejects_zero_based_columns(runner, fixtures_dir):
    path = str(fixtures_dir / "oa_4_3_2_2.oa")
    result = invoke(runner, "oa", "transform", path, "--remove-cols", "0")
    assert result.exit_code == 1
    assert "1-based" in result.output


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_hadamard(runner):
    result = invoke(runner, "construct", "hadamard", "--order", "2")
    assert result.exit_code == 0
    assert result.output == "++\n+-\n"
    result = invoke(runner, "construct", "hadamard", "--order", "12")
    rows = result.output.splitlines()
    assert len(rows) == 12 and all(len(r) == 12 for r in rows)
    assert rows[0] == "+" * 12
    result = invoke(runner, "construct", "hadamard", "--order", "3")
    assert result.exit_code == 1


def test_construct_bush_ext_and_rao(runner):
    result = invoke(runner, "construct", "bush-ext", "--d", "2")
    assert result.exit_code == 0
    assert parse_oa_file(result.output).runs == 8
    result = invoke(runner, "construct", "rao", "--d", "2", "--n", "3")
    arr = parse_oa_file(result.output)
    assert (arr.runs, arr.factors) == (8, 7)
    result = invoke(runner, "construct", "bush", "--d", "6", "--k", "2")
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

def test_state_from_oa(runner, fixtures_dir):
    path = str(fixtures_dir / "oa_8_5_2_2_signfix.oa")
    result = invoke(runner, "state", "from-oa", path)
    assert result.exit_code == 0
    assert all(t.startswith("+") for t in result.output.split())

    result = invoke(runner, "state", "from-oa", path, "--signs", "00000011")
    want = parse_ket((fixtures_dir / "signfix_n5_solved.ket").read_text())
    assert result.output == write_ket(want)

    result = invoke(runner, "state", "from-oa", path, "--signs", "0x000011")
    assert result.exit_code == 1
    result = invoke(runner, "state", "from-oa", path, "--signs", "01")
    assert result.exit_code == 1


def test_state_check_certifies(runner, fixtures_dir):
    path = str(fixtures_dir / "signed_n6_k3.ket")
    result = invoke(runner, "state", "check", path, "--k", "3")
    assert result.exit_code == 0
    assert result.output.startswith("certified:")
    assert "note:" in result.output


def test_state_check_failure_lists_subsets(runner, fixtures_dir):
    path = str(fixtures_dir / "signfix_n5_input.ket")
    result = invoke(runner, "state", "check", path, "--k", "2")
    assert result.exit_code == 2
    assert result.output.startswith("NOT certified:")
    assert "failed subset [2, 5]" in result.output
    assert "failed subset [3, 4]" in result.output
    assert "eigenvalues" in result.output


def test_state_check_json_report(runner, fixtures_dir):
    path = str(fixtures_dir / "signfix_n5_input.ket")
    result = invoke(runner, "state", "check", path, "--k", "2", "--json")
    assert result.exit_code == 2
    doc = json.loads(result.output)
    assert doc["certified"] is False
    assert doc["qudits"] == 5 and doc["strength"] == 2
    assert len(doc["subsets"]) == 10
    failing = [s["kept"] for s in doc["subsets"] if not s["maximally_mixed"]]
    assert sorted(failing) == [[2, 5], [3, 4]]
    assert "1-based" in doc["note"]


def test_state_check_honors_tolerance(runner, fixtures_dir):
    path = str(fixtures_dir / "signfix_n5_input.ket")
    result = invoke(runner, "state", "check", path, "--k", "2", "--tol", "0.3")
    assert result.exit_code == 0  # deviation 0.25 within the loose tolerance


def test_state_two_uniform(runner):
    result = invoke(runner, "state", "two-uniform", "--n", "8")
    assert result.exit_code == 0
    st = parse_ket(result.output)
    assert st.qudits == 8 and st.term_count == 12
    result = invoke(runner, "state", "two-uniform", "--n", "5")
    assert result.exit_code == 4
    assert "unsupported" in result.output


def test_state_fix_signs_success(runner, fixtures_dir):
    path = str(fixtures_dir / "oa_8_5_2_2_signfix.oa")
    result = invoke(runner, "state", "fix-signs", path, "--k", "2")
    assert result.exit_code == 0
    assert result.output.strip() == (
        "+|00011> +|00101> -|01010> +|01100> "
        "+|10000> +|10110> -|11001> +|11111>")


def test_state_fix_signs_infeasible(runner, tmp_path):
    path = write_full_factorial(tmp_path, 3, 2)
    result = invoke(runner, "state", "fix-signs", path, "--k", "1")
    assert result.exit_code == 3
    assert result.output.strip() == "infeasible"


def test_state_fix_signs_exhaustive_and_unsupported(runner, tmp_path):
    path = write_full_factorial(tmp_path, 2, 4)
    result = invoke(runner, "state", "fix-signs", path, "--k", "1")
    assert result.exit_code == 0
    assert parse_ket(result.output).term_count == 16
    path = write_full_factorial(tmp_path, 2, 5)
    result = invoke(runner, "state", "fix-signs", path, "--k", "1")
    assert result.exit_code == 4
    assert result.output.strip() == "unsupported"


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_export_dot(runner, fixtures_dir):
    path = str(fixtures_dir / "bell.ket")
    result = invoke(runner, "graph", "export", path, "--keep", "1", "--dot")
    assert result.exit_code == 0
    assert '"A_0" -- "B_1";' in result.output
    assert "cluster_a" in result.output


def test_graph_export_json(runner, fixtures_dir):
    path = str(fixtures_dir / "ghz_n3.ket")
    result = invoke(runner, "graph", "export", path, "--keep", "1", "--json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["partition"] == [1]
    assert len(doc["edges"]) == 2


def test_graph_export_requires_one_format(runner, fixtures_dir):
    path = str(fixtures_dir / "bell.ket")
    result = invoke(runner, "graph", "export", path, "--keep", "1")
    assert result.exit_code == 1
    result = invoke(runner, "graph", "export", path, "--keep", "1",
                    "--dot", "--json")
    assert result.exit_code == 1


def test_graph_export_bad_subset(runner, fixtures_dir):
    path = str(fixtures_dir / "bell.ket")
    result = invoke(runner, "graph", "export", path, "--keep", "1,2", "--dot")
    assert result.exit_code == 1  # keeping every qudit is not a partition


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_rao(runner):
    result = invoke(runner, "bounds", "rao", "--n", "5", "--d", "2", "--k", "2")
    assert result.exit_code == 0 and result.output.strip() == "6"


def test_bounds_gv(runner):
    result = invoke(runner, "bounds", "gv", "--n", "14", "--k", "3")
    assert result.output.strip() == "true"
    result = invoke(runner, "bounds", "gv", "--n", "6", "--k", "3")
    assert result.output.strip() == "false"


def test_bounds_singleton(runner):
    result = invoke(runner, "bounds", "singleton", "--n", "7")
    assert result.output.strip() == "3"


def test_version_flag(runner):
    result = invoke(runner, "--version")
    assert result.exit_code == 0
    assert "kuniform" in result.output


def test_in_process_invocations_release_their_streams(runner, fixtures_dir):
    # each invocation captures stdout and stderr in fresh text streams; none
    # may outlive it
    def live_streams():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    path = str(fixtures_dir / "signfix_n5_input.ket")
    invoke(runner, "state", "check", path, "--k", "2")
    before = live_streams()
    for _ in range(20):
        assert invoke(runner, "state", "check", path, "--k", "2").exit_code == 2
        assert invoke(runner, "bounds", "rao", "--n", "0", "--d", "2",
                      "--k", "2").exit_code == 1
    assert live_streams() - before < 5


#: `oa verify` stdout on each `.oa` fixture and on the benchmark's catalog
#: arrays, as the line-by-line parser with its own separation census gave
#: it; permuting columns, levels and rows changes none of it.
VERIFY_OUTPUT = {
    "oa_2_2_2_1.oa": (1, 1, True, [1]),
    "oa_2_3_2_1.oa": (1, 1, True, [1]),
    "oa_4_3_2_2.oa": (2, 1, True, [1]),
    "oa_8_4_2_3.oa": (3, 1, True, [1]),
    "oa_8_5_2_2.oa": (2, 2, False, [1]),
    "oa_8_5_2_2_signfix.oa": (2, 2, False, [1]),
    "bush_oa(16, 2)": (2, 1, True, [1, 2]),
    "rao_oa(16, 2)": (2, 1, True, [1, 2]),
    "bush_oa(8, 3)": (3, 1, False, [1, 2, 3]),
    "rao_oa(2, 6)": (2, 16, True, [1, 2]),
    "rao_oa(3, 4)": (2, 9, True, [1, 2]),
    "bush_oa(13, 2)": (2, 1, True, [1, 2]),
    "rao_oa(4, 3)": (2, 4, True, [1, 2]),
    "bush_oa(9, 3)": (3, 1, False, [1, 2, 3]),
}


def test_oa_verify_output_is_unchanged_under_permutations(runner, tmp_path,
                                                          fixtures_dir):
    arrays = {path.name: parse_oa_file(path.read_text())
              for path in sorted(fixtures_dir.glob("*.oa"))}
    arrays.update((f"{c.__name__}{p}", c(*p)) for c, p in (
        (bush_oa, (16, 2)), (rao_oa, (16, 2)), (bush_oa, (8, 3)),
        (rao_oa, (2, 6)), (rao_oa, (3, 4)), (bush_oa, (13, 2)),
        (rao_oa, (4, 3)), (bush_oa, (9, 3))))
    assert arrays.keys() == VERIFY_OUTPUT.keys()
    rng = random.Random(20)
    path = tmp_path / "permuted.oa"
    for name, array in arrays.items():
        strength, index, tight, irredundant = VERIFY_OUTPUT[name]
        expected = (f'{{"strength": {strength}, "index": {index}, '
                    f'"tight": {str(tight).lower()}, '
                    f'"irredundant_at": {irredundant}}}\n')
        r, n, d = array.runs, array.factors, array.levels
        permuted = permute_rows(permute_levels(
            permute_columns(array, rng.sample(range(n), n)),
            [rng.sample(range(d), d) for _ in range(n)]),
            rng.sample(range(r), r))
        for text in (write_oa_file(array), write_oa_file(permuted)):
            path.write_text(text)
            result = invoke(runner, "oa", "verify", str(path))
            assert (result.exit_code, result.output) == (0, expected), name
