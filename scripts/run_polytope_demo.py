"""Demonstration of the polytope results at desk scale.

Walks through: a menu-effect vertex that is RU-rational but far from the
ARU polytope, the double-exponential vertex-count gap, the sparse
uniform-mixture approximation, and the strictness of the composition
size nesting (the explicit dataset that needs m + 1 underlying outside
alternatives when m atomic aggregates are present).

Run:
    python scripts/run_polytope_demo.py [--atoms 2]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from aggchoice import (
    AggregateSpace,
    ChoiceDomain,
    LinearOrder,
    MenuCollectionFamily,
    approx_caratheodory,
    aru_distance,
    build_nesting_counterexample,
    check_aru_rational,
    check_ru_rational,
    grid_oracle_ru_n,
    rationalize,
    vertex_choice,
    vertex_count_lower_bound,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--atoms", type=int, default=2, choices=(2, 3))
    args = parser.parse_args()

    space = AggregateSpace(("x", "y"), ("a0",))
    domain = ChoiceDomain.full(space)

    vertex = vertex_choice(
        LinearOrder(("x", "y", "a0")),
        MenuCollectionFamily.single("a0", [frozenset({"x", "a0"})]),
        domain,
    )
    print("menu-effect vertex (defaults to a0 on {x, a0}):")
    print("  RU-rational:", check_ru_rational(vertex, space).passed)
    print("  ARU-rational:", check_aru_rational(vertex, space).passed)
    print("  squared distance to ARU polytope:",
          f"{aru_distance(vertex, space).squared_distance:.6f}")

    for n in (4, 6):
        count, ratio = vertex_count_lower_bound(n)
        print(f"vertex-count lower bound at {n} atomics: {count} "
              f"(ratio to rational vertices >= {ratio})")

    m = args.atoms
    nest_space = AggregateSpace(tuple(f"y{i}" for i in range(1, m + 1)), ("a0",))
    rho = build_nesting_counterexample(nest_space)
    print(f"nesting dataset with {m} atomic aggregates:")
    print("  RU-rational:", check_ru_rational(rho, nest_space).passed)
    oracle = grid_oracle_ru_n(rho, m)
    print(f"  composition size {m}: witness found = {oracle.found} "
          f"({oracle.candidates_checked} candidates searched)")
    witness = rationalize(rho, nest_space, variant="outside_option")
    print(f"  composition size {m + 1}: rationalized with residual "
          f"{witness.residual:.2e}")

    sparse = approx_caratheodory(vertex, 1, space)
    print(f"sparse approximation of the vertex with k=1: error "
          f"{sparse.achieved:.3f} (bound {sparse.bound:.3f})")


if __name__ == "__main__":
    main()
