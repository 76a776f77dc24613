"""A first look at elementary cellular automata.

Builds a few Wolfram rules, prints their lookup tables, and renders short
evolutions as ASCII spacetime diagrams (one row per time step).
"""

import numpy as np

from cabdm import EcaRule, evolve_eca, random_config


def show(spacetime, title):
    print(f"\n{title}")
    for row in spacetime.cells:
        print("".join("#" if v else "." for v in row))


def main():
    rule = EcaRule(30)
    print("Rule 30 lookup table (neighborhood -> next state):")
    for nbhd in sorted(rule.table, reverse=True):
        print(f"  {nbhd} -> {rule.table[nbhd]}")

    width = 64
    single = np.zeros(width, dtype=np.int8)
    single[width // 2] = 1

    show(evolve_eca(30, single, 24), "Rule 30 from a single seed (chaotic):")
    show(evolve_eca(90, single, 24), "Rule 90 from a single seed (additive, Sierpinski):")
    show(evolve_eca(204, random_config(1, width, 0.3), 6), "Rule 204 is the identity:")

    show(evolve_eca(110, random_config(7, width, 0.5), 24), "Rule 110 from a random state:")


if __name__ == "__main__":
    main()
