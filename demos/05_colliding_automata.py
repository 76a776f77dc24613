"""Two rules sharing one lattice: collisions under sampled interactions.

Rule 30 drives the + cells, rule 22 the - cells; where both types meet in
one neighborhood, the outcome comes from a seeded random draw.  Complexity
is compared against each automaton evolving alone.
"""

import numpy as np

from cabdm import (
    collision_experiment,
    collision_initial_state,
    default_table,
    evolve_interacting,
    sample_interaction_rule,
)

GLYPHS = {0: ".", 1: "#", -1: "o"}


def main():
    gap, steps = 16, 28
    interaction = sample_interaction_rule(30, 22, seed=5)
    print("sampled outcomes for the 12 mixed neighborhoods:")
    for nbhd, outcome in interaction.mixed_outcomes.items():
        print(f"  {nbhd} -> {outcome:+d}")

    st = evolve_interacting(interaction, collision_initial_state(gap, steps), steps)
    print(f"\ncollision spacetime ('#'=+1 cells, 'o'=-1 cells), lattice {st.cells.shape[1]}:")
    for row in st.cells:
        print("".join(GLYPHS[int(v)] for v in row))

    table = default_table()
    reports = collision_experiment(30, 22, gap=40, steps=60, n_rules=30, table=table)
    d_a = np.array([r.delta_bdm_a for r in reports])
    d_lzw = np.array([r.delta_lzw_a for r in reports])
    print(f"\nover {len(reports)} sampled interaction rules (vs isolated rule 30):")
    print(f"  delta BDM : min {d_a.min():8.2f}  median {np.median(d_a):8.2f}  max {d_a.max():8.2f}")
    print(f"  delta LZW : min {d_lzw.min():8d}  median {int(np.median(d_lzw)):8d}  max {d_lzw.max():8d}")
    print("the spread comes entirely from the interaction draw; the isolated")
    print("baselines are identical in every report.")


if __name__ == "__main__":
    main()
