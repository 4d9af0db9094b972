"""Command-line interface.

Exit codes: 0 success (for ``state check``: certified), 1 parse/parameter
errors, 2 verification failures, 3 infeasible sign systems, 4 unsupported
requests.  Data goes to stdout, diagnostics to stderr.  Column and qudit
numbers on the command line are 1-based; the library API is 0-based.
"""

from __future__ import annotations

import functools
import json as jsonlib
import sys
from typing import Optional, Sequence

import click

from . import __version__
from .constructions import (
    bush_extended_oa,
    bush_oa,
    hadamard,
    hadamard_two_uniform_state,
    rao_oa,
)
from .errors import (
    KuniformError,
    NotAnOAAtStrength,
    OddContributions,
    ParameterMismatch,
    ParseError,
    Unsupported,
    UnsupportedMultiplicity,
)
from .graphs import graph_from_state, to_dot, to_json
from .oa import (
    OrthogonalArray,
    derive as derive_array,
    gv_holds,
    is_irredundant,
    max_strength,
    permute_levels,
    rao_min_runs,
    remove_columns,
    singleton_max_k,
    verify_strength,
)
from .phases import Infeasible, fix_state
from .serialize import parse_ket, parse_oa_file, write_ket, write_oa_file
from .states import _DIGIT_VALUE, UniformityReport, uniformity


def _echo(message: str, nl: bool = True, err: bool = False) -> None:
    """click.echo to the current sys.stdout or sys.stderr, named explicitly:
    click caches its default stream per stream object and the cache keeps
    each stream alive, so every in-process invocation (click's CliRunner)
    would otherwise keep its captured output for good."""
    click.echo(message, nl=nl, file=sys.stderr if err else sys.stdout)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (NotAnOAAtStrength, ParameterMismatch) as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)
        except OddContributions as exc:
            _echo(f"infeasible: {exc}", err=True)
            sys.exit(3)
        except (Unsupported, UnsupportedMultiplicity) as exc:
            _echo(f"unsupported: {exc}", err=True)
            sys.exit(4)
        except KuniformError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(1)
    return wrapper


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        _echo(f"error: cannot read {path}: {exc}", err=True)
        sys.exit(1)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(f) for f in text.split(",") if f.strip() != ""]
    except ValueError:
        _echo(f"error: {what} must be a comma-separated integer list, "
              f"got {text!r}", err=True)
        sys.exit(1)


def _one_based_columns(text: str, what: str) -> list[int]:
    cols = _parse_int_list(text, what)
    if any(c < 1 for c in cols):
        _echo(f"error: {what} uses 1-based column numbers", err=True)
        sys.exit(1)
    return [c - 1 for c in cols]


@click.group()
@click.version_option(version=__version__, prog_name="kuniform")
def main() -> None:
    """Orthogonal arrays, k-uniform states, and exact certification."""


# ---------------------------------------------------------------------------
# oa
# ---------------------------------------------------------------------------

@main.group()
def oa() -> None:
    """Inspect and transform orthogonal-array catalog files."""


@oa.command("verify")
@click.argument("file", type=str)
@click.option("--strength", type=int, default=None,
              help="Verify this strength instead of computing the maximum.")
@_guarded
def oa_verify(file: str, strength: Optional[int]) -> None:
    """Report strength, index, tightness, and irredundancy as JSON."""
    array = parse_oa_file(_read(file))
    if strength is not None:
        if not 0 <= strength <= array.factors or \
                not verify_strength(array, strength):
            _echo(f"error: rows do not have strength {strength}", err=True)
            sys.exit(2)
        s = strength
    else:
        s = max_strength(array)
    result = {
        "strength": s,
        "index": array.runs // array.levels ** s,
        "tight": array.runs == rao_min_runs(array.factors, array.levels, s),
        "irredundant_at": [k for k in range(1, s + 1)
                           if is_irredundant(array, k).ok],
    }
    _echo(jsonlib.dumps(result))


@oa.command("transform")
@click.argument("file", type=str)
@click.option("--remove-cols", "remove_cols", type=str, default=None,
              help="Comma-separated 1-based columns to drop.")
@click.option("--derive", "derive_symbol", type=int, default=None,
              help="Keep rows starting with this symbol; drop column 1.")
@click.option("--permute-levels", "permute_spec", type=str, default=None,
              help="Comma-separated per-column level maps; each is d base-36 "
                   "digits, position v holding the image of level v "
                   "(e.g. '10,01,01' flips levels in column 1 of a "
                   "three-column two-level array).")
@_guarded
def oa_transform(file: str, remove_cols: Optional[str],
                 derive_symbol: Optional[int],
                 permute_spec: Optional[str]) -> None:
    """Apply exactly one transformation and print the resulting catalog."""
    chosen = [x for x in (remove_cols, derive_symbol, permute_spec)
              if x is not None]
    if len(chosen) != 1:
        _echo("error: give exactly one of --remove-cols, --derive, "
              "--permute-levels", err=True)
        sys.exit(1)
    array = parse_oa_file(_read(file))
    if remove_cols is not None:
        result = remove_columns(array, _one_based_columns(remove_cols,
                                                          "--remove-cols"))
    elif derive_symbol is not None:
        result = derive_array(array, derive_symbol)
    else:
        perms = []
        for piece in permute_spec.split(","):
            piece = piece.strip()
            if any(c not in _DIGIT_VALUE for c in piece):
                _echo(f"error: bad level map {piece!r}", err=True)
                sys.exit(1)
            perms.append([_DIGIT_VALUE[c] for c in piece])
        result = permute_levels(array, perms)
    _echo(write_oa_file(result), nl=False)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

@main.group()
def construct() -> None:
    """Generate Hadamard matrices and orthogonal-array families."""


@construct.command("hadamard")
@click.option("--order", type=int, required=True)
@_guarded
def construct_hadamard(order: int) -> None:
    """Print a normalized Hadamard matrix as rows of +/- characters."""
    h = hadamard(order)
    for row in h.entries:
        _echo("".join("+" if v == 1 else "-" for v in row))


@construct.command("bush")
@click.option("--d", "d", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@_guarded
def construct_bush(d: int, k: int) -> None:
    """Index-unity OA(d**k, d+1, d, k) catalog."""
    _echo(write_oa_file(bush_oa(d, k)), nl=False)


@construct.command("rao")
@click.option("--d", "d", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
@_guarded
def construct_rao(d: int, n: int) -> None:
    """Strength-2 OA(d**n, (d**n-1)/(d-1), d, 2) catalog."""
    _echo(write_oa_file(rao_oa(d, n)), nl=False)


@construct.command("bush-ext")
@click.option("--d", "d", type=int, required=True)
@_guarded
def construct_bush_ext(d: int) -> None:
    """Index-unity OA(d**3, d+2, d, 3) catalog (d a power of two)."""
    _echo(write_oa_file(bush_extended_oa(d)), nl=False)


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

@main.group()
def state() -> None:
    """Build states from arrays and certify uniformity."""


@state.command("from-oa")
@click.argument("file", type=str)
@click.option("--signs", type=str, default=None,
              help="One 0/1 character per row; 1 flips the row's sign.")
@_guarded
def state_from_oa_cmd(file: str, signs: Optional[str]) -> None:
    """Print the state whose terms are the array's rows."""
    from .states import state_from_oa as build

    array = parse_oa_file(_read(file))
    phases = None
    if signs is not None:
        if set(signs) - {"0", "1"}:
            _echo("error: --signs must be a 0/1 string", err=True)
            sys.exit(1)
        phases = [(-1.0) ** int(b) for b in signs]
    _echo(write_ket(build(array, phases)), nl=False)


def _report_to_dict(report: UniformityReport) -> dict:
    return {
        "qudits": report.qudits,
        "levels": report.levels,
        "strength": report.strength,
        "tolerance": report.tolerance,
        "certified": report.certified,
        "note": report.note,
        "subsets": [
            {
                "kept": list(s.kept_labels),
                "maximally_mixed": s.maximally_mixed,
                "deviation": s.deviation,
                "eigenvalues": None if s.eigenvalues is None
                else list(s.eigenvalues),
            }
            for s in report.subsets
        ],
    }


@state.command("check")
@click.argument("ket_file", type=str)
@click.option("--k", "k", type=int, required=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--json", "as_json", is_flag=True,
              help="Print the full report as JSON.")
@_guarded
def state_check(ket_file: str, k: int, tol: float, as_json: bool) -> None:
    """Certify k-uniformity; exit 0 iff every reduction is maximally mixed."""
    psi = parse_ket(_read(ket_file))
    report = uniformity(psi, k, tol)
    if as_json:
        _echo(jsonlib.dumps(_report_to_dict(report), indent=2))
    else:
        worst = max(s.deviation for s in report.subsets)
        verdict = "certified" if report.certified else "NOT certified"
        _echo(f"{verdict}: k={k}, qudits={report.qudits}, "
              f"levels={report.levels}, tolerance={tol}, "
              f"max deviation {worst:.3e}")
        _echo(f"note: {report.note}")
        for s in report.subsets:
            if not s.maximally_mixed:
                eig = ("" if s.eigenvalues is None else
                       " eigenvalues " + ", ".join(f"{v:.6f}"
                                                   for v in s.eigenvalues))
                _echo(f"failed subset {list(s.kept_labels)}: "
                      f"deviation {s.deviation:.3e}{eig}")
    sys.exit(0 if report.certified else 2)


@state.command("two-uniform")
@click.option("--n", "n", type=int, required=True)
@_guarded
def state_two_uniform(n: int) -> None:
    """Print a 2-uniform n-party state built from a Hadamard matrix."""
    _echo(write_ket(hadamard_two_uniform_state(n)), nl=False)


@state.command("fix-signs")
@click.argument("oa_file", type=str)
@click.option("--k", "k", type=int, required=True)
@_guarded
def state_fix_signs(oa_file: str, k: int) -> None:
    """Solve for +/-1 phases making every k-reduction maximally mixed."""
    array = parse_oa_file(_read(oa_file))
    try:
        result = fix_state(array, k)
    except (Unsupported, UnsupportedMultiplicity):
        _echo("unsupported")
        sys.exit(4)
    if result is Infeasible:
        _echo("infeasible")
        sys.exit(3)
    _echo(write_ket(result), nl=False)


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

@main.group()
def graph() -> None:
    """Export bipartite graphs of states."""


@graph.command("export")
@click.argument("ket_file", type=str)
@click.option("--keep", type=str, required=True,
              help="Comma-separated 1-based kept qudits.")
@click.option("--dot", "as_dot", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@_guarded
def graph_export(ket_file: str, keep: str, as_dot: bool, as_json: bool) -> None:
    """Print the partition graph in DOT or JSON form."""
    if as_dot == as_json:
        _echo("error: give exactly one of --dot, --json", err=True)
        sys.exit(1)
    psi = parse_ket(_read(ket_file))
    g = graph_from_state(psi, _one_based_columns(keep, "--keep"))
    _echo(to_dot(g) if as_dot else to_json(g), nl=False)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@main.group()
def bounds() -> None:
    """Evaluate minimal-run and existence bounds."""


@bounds.command("rao")
@click.option("--n", "n", type=int, required=True)
@click.option("--d", "d", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@_guarded
def bounds_rao(n: int, d: int, k: int) -> None:
    """Minimal run count for an array with these parameters."""
    _echo(str(rao_min_runs(n, d, k)))


@bounds.command("gv")
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@_guarded
def bounds_gv(n: int, k: int) -> None:
    """Existence condition for two-level systems: prints true/false."""
    _echo("true" if gv_holds(n, k) else "false")


@bounds.command("singleton")
@click.option("--n", "n", type=int, required=True)
@_guarded
def bounds_singleton(n: int) -> None:
    """Largest admissible uniformity floor(n/2)."""
    _echo(str(singleton_max_k(n)))


if __name__ == "__main__":  # pragma: no cover
    main()
