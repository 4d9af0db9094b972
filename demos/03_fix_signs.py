"""Repair a non-uniform state by solving for term signs over GF(2).

Some arrays yield states whose reductions pick up off-diagonal entries.
Each such entry is fed by row pairs; when every off-diagonal cell is fed
by exactly two pairs, cancelling them is a linear parity condition on
one sign bit per row.  A cell fed by an odd number of pairs can never
cancel, so it makes the repair infeasible, even beside a cell fed by more
pairs than the linear treatment covers.  Run:

    python3 demos/03_fix_signs.py
"""

from kuniform import (
    OrthogonalArray,
    UnsupportedMultiplicity,
    constraint_system,
    fix_state,
    hadamard,
    hadamard_to_oa,
    remove_columns,
    solve_signs,
    state_from_oa,
    uniformity,
    write_ket,
    write_oa_file,
)


def main():
    # Keep the last five columns of the order-8 Hadamard array: still a
    # strength-2 array, but two rows collide once three columns are hidden.
    array = remove_columns(hadamard_to_oa(hadamard(8)), [0, 1])
    print("the array:")
    print(write_oa_file(array), end="")
    print()

    plain = state_from_oa(array)
    rep = uniformity(plain, 2)
    failing = [s.kept_labels for s in rep.subsets if not s.maximally_mixed]
    print(f"all-positive state certified: {rep.certified}; "
          f"failing kept pairs {failing}")
    print()

    # Extract the parity conditions (one sign bit per row).
    system = constraint_system(array, 2)
    print(f"{len(system.constraints)} parity constraints over "
          f"{system.variable_count} sign bits:")
    for c in system.constraints:
        terms = " + ".join(f"s{v}" for v in c.variables)
        print(f"  {terms} = {c.parity} (mod 2)   "
              f"[kept {tuple(x + 1 for x in c.kept)}, cell {c.cell}]")
    print()

    solution = solve_signs(system)
    print("canonical solution bits:", solution.assignment)
    print("satisfies system:", system.satisfied_by(solution.assignment))
    print()

    fixed = fix_state(array, 2)
    print("repaired state:")
    print(" ", write_ket(fixed), end="")
    print("  certified 2-uniform:", uniformity(fixed, 2).certified)
    print()

    # Six columns of the order-24 array: at k = 2 one cell is fed by a
    # single row pair and another by six.  constraint_system names the
    # first offending cell, the wide one; fix_state reads every cell's
    # count, and the odd cell decides.
    base = hadamard_to_oa(hadamard(24)).grid
    mixed = OrthogonalArray(base[:, [1, 9, 11, 17, 18, 21]], 2)
    try:
        constraint_system(mixed, 2)
    except UnsupportedMultiplicity as exc:
        print("constraint system of the mixed array:", exc)
    print("fix_state on the mixed array:", fix_state(mixed, 2))


if __name__ == "__main__":
    main()
