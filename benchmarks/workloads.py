"""The benchmark's four workloads: seeded inputs, timed jobs, answer checks.

``build(name, seed, quick, workdir)`` returns the workload's job list.  A
job's ``run(tracer)`` is the timed part: one call at a time into the public
API (through ``kuniform.<name>`` so a traced run sees it) and the in-process
CLI.  Its ``check(answer)`` runs untimed afterwards and raises
``CheckFailed`` when the answer disagrees with theory or an oracle.

The seed only relabels inputs in ways that leave every verdict unchanged
by theory: qudit and column order, per-column level relabelling and row
order.  The library receives the relabelled arrays and states, never the
seed.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple

import numpy as np
from click.testing import CliRunner

import kuniform as K
import kuniform.cli
import oracles
from checks import (
    cancelled,
    cell_table,
    classify,
    exact_strength,
    first_cell,
    min_distance,
    rao_min_runs,
    reduced_matrix,
    require,
    sign_patterns_exist,
    uniform_state_verdict,
)

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
FIXTURES = os.path.join(os.path.dirname(oracles.__file__), "fixtures")

#: Row limit of the library's exhaustive sign search, as documented.
EXHAUSTIVE_ROW_LIMIT = 21


class Job(NamedTuple):
    name: str
    run: Callable      # run(tracer) -> answer; timed
    check: Callable    # check(answer) -> None or raise CheckFailed; untimed


class Cli:
    """The command line, invoked in process; its input files go to a
    scratch directory."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.runner = CliRunner()

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def __call__(self, tracer, args):
        with tracer.span("cli.invoke"):
            result = self.runner.invoke(kuniform.cli.main, args)
        return result.exit_code, result.output, result.exception


def memo(compute):
    """Compute an expected answer once, on first use (outside timing)."""
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]
    return get


def relabel(rows, d, rng):
    """Seeded column order, per-column level relabelling and row order."""
    n = len(rows[0])
    order = rng.sample(range(n), n)
    maps = [rng.sample(range(d), d) for _ in range(n)]
    out = [tuple(maps[j][row[c]] for j, c in enumerate(order)) for row in rows]
    rng.shuffle(out)
    return out


def word(row) -> str:
    return "".join(DIGITS[v] for v in row)


def expected_max_uniformity(rows, d) -> int:
    k = 0
    while k + 1 <= len(rows[0]) // 2 and uniform_state_verdict(rows, d, k + 1):
        k += 1
    return k


def check_report(report, n, k, failing) -> None:
    """A full report: every C(n, k) subset in order with 1-based labels;
    the failing ones are exactly `failing` (kept -> (deviation, ascending
    eigenvalues)), every other one within tolerance."""
    require(report.qudits == n and report.strength == k,
            f"report is for n={report.qudits}, k={report.strength}")
    require(len(report.subsets) == comb(n, k),
            f"report lists {len(report.subsets)} of {comb(n, k)} subsets")
    for sub, kept in zip(report.subsets, combinations(range(n), k)):
        require(sub.kept_labels == tuple(c + 1 for c in kept),
                f"subset {sub.kept_labels} out of order")
        want = failing.get(kept)
        if want is None:
            require(sub.maximally_mixed and sub.deviation <= report.tolerance,
                    f"subset {sub.kept_labels} should be maximally mixed")
            continue
        deviation, eigenvalues = want
        require(not sub.maximally_mixed, f"subset {sub.kept_labels} should fail")
        require(abs(sub.deviation - deviation) <= 1e-9,
                f"subset {sub.kept_labels} deviation {sub.deviation}, "
                f"expected {deviation}")
        require(sub.eigenvalues is not None and
                np.allclose(sorted(sub.eigenvalues), eigenvalues, atol=1e-8),
                f"subset {sub.kept_labels} eigenvalues {sub.eigenvalues}, "
                f"expected {list(eigenvalues)}")
    require(report.certified == (not failing), "certified flag is wrong")


def uniformity_job(name, state_input, rows, d, k) -> Job:
    """uniformity(state, k) of an equal-phase state; the verdict comes from
    the graph-rule theorem (strength k and irredundant at k)."""
    n = len(rows[0])

    def run(tracer):
        return K.uniformity(state_input(), k)

    expected = memo(lambda: uniform_state_verdict(rows, d, k))

    def check(report):
        require(expected(), f"theory says {name} is not {k}-uniform")
        check_report(report, n, k, {})
    return Job(name, run, check)


def max_uniformity_job(name, state_input, rows, d) -> Job:
    expected = memo(lambda: expected_max_uniformity(rows, d))

    def run(tracer):
        return K.max_uniformity(state_input())

    def check(value):
        require(value == expected(),
                f"max_uniformity {value}, theory gives {expected()}")
    return Job(name, run, check)


# ---------------------------------------------------------------------------
# hadamard_k2
# ---------------------------------------------------------------------------

def hadamard_k2(seed, quick, cli):
    """2-uniform Hadamard states: N = 12..40 certified at k = 2, and
    max_uniformity for N = 8..19 (2 by theory: strength 3 would need 2N
    rows by the Rao bound, and the state has fewer)."""
    certify = (12, 13) if quick else range(12, 41)
    scan = (8,) if quick else range(8, 20)
    jobs = []
    for n in sorted(set(certify) | set(scan)):
        base = [tuple(DIGITS.index(c) for c in w)
                for w in K.hadamard_two_uniform_state(n).words]
        rows = relabel(base, 2, random.Random(f"{seed}/hadamard/{n}"))
        state = K.PureState(n, 2, tuple((word(r), 1.0) for r in rows))
        if n in certify:
            jobs.append(uniformity_job(f"uniformity_k2_n{n}",
                                       lambda s=state: s, rows, 2, 2))
        if n in scan:
            jobs.append(max_uniformity_job(f"max_uniformity_n{n}",
                                           lambda s=state: s, rows, 2))
    return jobs


# ---------------------------------------------------------------------------
# bush_k3
# ---------------------------------------------------------------------------

#: Constructions are named, not bound, so that a traced run sees the calls.
BUSH_ARRAYS = {
    "bush_8_3": ("bush_oa", (8, 3)),
    "bush_8_3b": ("bush_oa", (8, 3)),
    "bushext_8": ("bush_extended_oa", (8,)),
    "bush_7_3": ("bush_oa", (7, 3)),
    "bush_5_3": ("bush_oa", (5, 3)),
    "bush_7_2": ("bush_oa", (7, 2)),
    "bush_5_2": ("bush_oa", (5, 2)),
}
#: (call, array, k).  bush_8_3 appears under two relabellings, so that the
#: slowest jobs of a pass are several of equal cost and the tail percentile
#: does not jump between job kinds as the pass count changes.
BUSH_JOBS = (
    ("uniformity", "bush_8_3", 3), ("uniformity", "bush_8_3b", 3),
    ("uniformity", "bushext_8", 3), ("uniformity", "bush_7_3", 3),
    ("uniformity", "bush_5_3", 3),
    ("max_uniformity", "bush_7_2", None), ("max_uniformity", "bush_5_2", None),
    ("graphs", "bush_8_3", 3), ("graphs", "bushext_8", 3),
    ("graphs", "bush_7_3", 3), ("graphs", "bush_7_2", 2),
)
QUICK_BUSH_JOBS = (("uniformity", "bush_5_3", 3),
                   ("max_uniformity", "bush_5_2", None), ("graphs", "bush_5_2", 2))


def bush_k3(seed, quick, cli):
    """Few subsets, large d**k: uniformity at k = 3 of index-unity Bush
    states (k-uniform by theory, as N - k >= k), max_uniformity of
    strength-2 Bush states (2: a 3-uniform state needs d**3 terms), and
    the graph-rule certifier on the same states."""
    table = QUICK_BUSH_JOBS if quick else BUSH_JOBS
    arrays, rows_of, states = {}, {}, {}
    for name in sorted({name for _, name, _ in table}):
        construct, params = BUSH_ARRAYS[name]
        base = getattr(K, construct)(*params)
        rows_of[name] = relabel(base.rows, base.levels,
                                random.Random(f"{seed}/{name}"))
        arrays[name] = K.OrthogonalArray(tuple(rows_of[name]), base.levels)
        states[name] = K.state_from_oa(arrays[name])
    jobs = []
    for call, name, k in table:
        d = arrays[name].levels
        from_array = (lambda a=arrays[name]: K.state_from_oa(a))
        if call == "uniformity":
            jobs.append(uniformity_job(f"uniformity_k{k}_{name}", from_array,
                                       rows_of[name], d, k))
        elif call == "max_uniformity":
            jobs.append(max_uniformity_job(f"max_uniformity_{name}", from_array,
                                           rows_of[name], d))
        else:
            jobs.append(graph_job(f"graphs_k{k}_{name}", states[name],
                                  rows_of[name], d, k))
    return jobs


def graph_job(name, state, rows, d, k) -> Job:
    expected = memo(lambda: uniform_state_verdict(rows, d, k))

    def run(tracer):
        return K.is_k_uniform_by_graphs(state, k)

    def check(value):
        require(value is expected(),
                f"graph rules say {value}, theory gives {expected()}")
    return Job(name, run, check)


# ---------------------------------------------------------------------------
# sign_repair
# ---------------------------------------------------------------------------

#: (Hadamard order, k, columns kept, sign-repair class); see checks.classify.
SIGN_SLOTS = (
    (8, 1, 3, "multi"), (8, 2, 5, "linear"),
    (16, 1, 5, "multi"), (16, 2, 6, "multi"), (16, 2, 7, "multi"),
    (16, 2, 8, "multi"), (16, 2, 12, "clean"),
    (24, 1, 7, "linear"), (24, 1, 8, "linear"), (24, 2, 8, "odd"),
    (24, 2, 9, "odd"), (24, 2, 23, "clean"),
    (32, 1, 6, "unsup"), (32, 2, 8, "unsup"), (32, 2, 31, "clean"),
    (48, 1, 9, "unsup"), (48, 2, 12, "linear"), (48, 2, 32, "clean"),
    (64, 1, 8, "unsup"), (64, 2, 10, "unsup"), (64, 2, 27, "clean"),
)
QUICK_SIGN_SLOTS = ((8, 2, 5, "linear"), (16, 2, 6, "multi"),
                    (24, 2, 8, "odd"), (32, 1, 6, "unsup"),
                    (16, 2, 12, "clean"))
SIGN_FIXTURES = (("oa_8_5_2_2.oa", 1), ("oa_8_5_2_2.oa", 2),
                 ("oa_8_5_2_2_signfix.oa", 1), ("oa_8_5_2_2_signfix.oa", 2))
SAMPLE_TRIES = 500


def sign_repair(seed, quick, cli):
    """Seeded column subsets of normalized Hadamard arrays, drawn until the
    subset has its slot's sign-repair class, plus the bundled fixtures."""
    inputs = []
    hadamard_rows = {}
    for order, k, m, wanted in (QUICK_SIGN_SLOTS if quick else SIGN_SLOTS):
        if order not in hadamard_rows:
            hadamard_rows[order] = K.hadamard_to_oa(K.hadamard(order)).rows
        base = hadamard_rows[order]
        rng = random.Random(f"{seed}/sign/{order}/{k}/{m}/{wanted}")
        for _ in range(SAMPLE_TRIES):
            cols = sorted(rng.sample(range(len(base[0])), m))
            rows = [tuple(row[c] for c in cols) for row in base]
            if len(set(rows)) == len(rows) and \
                    classify(cell_table(rows, k), len(rows)) == wanted:
                break
        else:
            raise RuntimeError(f"no {wanted} subset of {m} columns of the "
                               f"order-{order} array in {SAMPLE_TRIES} draws")
        inputs.append((f"h{order}_k{k}_m{m}_{wanted}", rows, k, rng))
    for fixture, k in (SIGN_FIXTURES[-1:] if quick else SIGN_FIXTURES):
        _, rows = oracles.read_oa_fixture(os.path.join(FIXTURES, fixture))
        rng = random.Random(f"{seed}/sign/{fixture}/{k}")
        inputs.append((f"{fixture[:-3]}_k{k}", rows, k, rng))
    return [sign_job(name, relabel(rows, 2, rng), k, cli)
            for name, rows, k, rng in inputs]


def sign_job(name, rows, k, cli) -> Job:
    """Full report of the equal-phase state, fix_state, a ket round trip
    and `state check` on the repaired state (or the equal-phase one)."""
    array = K.OrthogonalArray(tuple(rows), 2)
    words = [word(r) for r in rows]
    n, r = len(rows[0]), len(rows)

    def run(tracer):
        plain = K.state_from_oa(array)
        report = K.uniformity(plain, k)
        try:
            fixed = K.fix_state(array, k)
        except K.Unsupported:
            fixed = "unsupported"
        target = fixed if isinstance(fixed, K.PureState) else plain
        text = K.write_ket(target)
        back = K.parse_ket(text)
        code, output, exc = cli(tracer, ["state", "check",
                                         cli.file(f"{name}.ket", text),
                                         "--k", str(k)])
        return report, fixed, target, back, code, exc

    @memo
    def expected():
        require(oracles.naive_strength_ok(rows, 2, k),
                f"input lacks strength {k}")
        table = cell_table(rows, k)
        failing = {}
        for kept in table:
            rho = reduced_matrix(rows, [1.0] * r, kept, 2, table)
            deviation = float(np.max(np.abs(rho - np.eye(len(rho)) / len(rho))))
            failing[kept] = (deviation, oracles.eigvalsh(rho))
        return table, classify(table, r, EXHAUSTIVE_ROW_LIMIT), failing

    certified_states = set()

    def check(answer):
        report, fixed, target, back, code, exc = answer
        table, cls, failing = expected()
        check_report(report, n, k, failing)
        if fixed == "unsupported":
            require(cls == "unsup" and r > EXHAUSTIVE_ROW_LIMIT and
                    first_cell(table, lambda pairs: pairs >= 4) is not None,
                    f"Unsupported on a {cls} array of {r} rows")
        elif fixed is K.Infeasible:
            if cls == "multi":
                require(not sign_patterns_exist(table, r),
                        "Infeasible, but an exhaustive search finds signs")
            else:
                require(first_cell(table, lambda pairs: pairs % 2) is not None,
                        f"Infeasible without an odd-pair cell ({cls})")
        else:
            require(cls in ("clean", "linear", "multi"),
                    f"repaired a {cls} array")
            check_repaired(fixed, words, k, table, certified_states)
        require([w for w, _ in back.terms] == [w for w, _ in target.terms] and
                all(abs(p - q) <= 1e-12 for (_, p), (_, q)
                    in zip(back.terms, target.terms)),
                "write_ket/parse_ket round trip changed the state")
        want = 0 if isinstance(fixed, K.PureState) else 2
        require(code == want and (exc is None or isinstance(exc, SystemExit)),
                f"state check exited {code} ({exc!r}), expected {want}")
    return Job(f"sign_{name}", run, check)


def check_repaired(state, words, k, table, certified_states) -> None:
    """The array's rows as words, +/-1 phases, every cell cancelled, and a
    separate uniformity call that certifies."""
    phase_of = dict(state.terms)
    require(sorted(phase_of) == sorted(words),
            "repaired state's words are not the array's rows")
    require(all(abs(abs(p.real) - 1.0) <= 1e-12 and abs(p.imag) <= 1e-12
                for p in phase_of.values()), "phases are not +/-1")
    require(cancelled(table, [phase_of[w] for w in words]),
            "an off-diagonal cell does not cancel")
    if state.terms not in certified_states:
        require(K.uniformity(state, k).certified,
                "repaired state does not certify")
        certified_states.add(state.terms)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

#: name -> (construction, parameters, strength by the construction theorem)
CATALOG_ARRAYS = {
    "bush_16_2": ("bush_oa", (16, 2), 2),
    "rao_16_2": ("rao_oa", (16, 2), 2),
    "bush_8_3": ("bush_oa", (8, 3), 3),
    "rao_2_6": ("rao_oa", (2, 6), 2),
    "rao_3_4": ("rao_oa", (3, 4), 2),
    "bush_13_2": ("bush_oa", (13, 2), 2),
    "rao_4_3": ("rao_oa", (4, 3), 2),
    "bush_9_3": ("bush_oa", (9, 3), 3),
}
QUICK_CATALOG = ("bush_13_2", "rao_4_3")


def catalog(seed, quick, cli):
    """Construct each array, permute its columns, levels and rows, write it
    as a catalog file and run `oa verify` on it."""
    return [catalog_job(name, *CATALOG_ARRAYS[name],
                        random.Random(f"{seed}/catalog/{name}"), cli)
            for name in (QUICK_CATALOG if quick else CATALOG_ARRAYS)]


def catalog_job(name, construct, params, strength, rng, cli) -> Job:
    d = params[0]
    n = (d ** params[1] - 1) // (d - 1) if construct == "rao_oa" else d + 1
    runs = d ** params[1]
    columns = rng.sample(range(n), n)
    levels = [rng.sample(range(d), d) for _ in range(n)]
    order = rng.sample(range(runs), runs)

    def run(tracer):
        array = getattr(K, construct)(*params)
        array = K.permute_columns(array, columns)
        array = K.permute_levels(array, levels)
        array = K.permute_rows(array, order)
        text = K.write_oa_file(array)
        code, output, exc = cli(tracer, ["oa", "verify",
                                         cli.file(f"{name}.oa", text)])
        return text, code, output, exc

    @memo
    def expected():
        base = getattr(K, construct)(*params).rows
        permuted = [tuple(levels[j][row[c]] for j, c in enumerate(columns))
                    for row in base]
        rows = [permuted[i] for i in order]
        s = exact_strength(rows, d, strength)
        distance = min_distance(rows)
        verdict = {"strength": s, "index": runs // d ** s,
                   "tight": runs == rao_min_runs(n, d, s),
                   "irredundant_at": [k for k in range(1, s + 1)
                                      if distance > k]}
        header = f"oa {runs} {n} {d} {strength}"
        return header, [word(row) for row in rows], verdict

    def check(answer):
        text, code, output, exc = answer
        header, words, verdict = expected()
        lines = text.splitlines()
        require(lines[0] == header, f"catalog header {lines[0]!r}, "
                                    f"expected {header!r}")
        require(lines[1:] == words, "catalog rows are not the permuted array")
        require(code == 0 and exc is None, f"oa verify exited {code} ({exc!r})")
        require(json.loads(output) == verdict,
                f"oa verify printed {output.strip()}, theory gives {verdict}")
    return Job(f"catalog_{name}", run, check)


#: How strongly each workload's job times follow the calibration kernel
#: when the machine's speed drifts (1: in proportion).  bush_k3 spends most
#: of its time on multi-megabyte arrays, which slowed by about a third when
#: the kernel slowed by half or more.
SPEED_ELASTICITY = {"bush_k3": 0.5}

WORKLOADS = {
    "hadamard_k2": hadamard_k2,
    "bush_k3": bush_k3,
    "sign_repair": sign_repair,
    "catalog": catalog,
}


def build(name: str, seed: int, quick: bool, workdir: str):
    return WORKLOADS[name](seed, quick, Cli(workdir))
