#!/usr/bin/env python3
"""Count the valid consistency operators on small finite chains.

Three counts per chain: a brute force that runs validate_c on all n**n
unary maps, the operators enumerate_ops builds, and the closed form (the
free part of an operator is one non-decreasing tuple over the zero-negation
region, so the count is C(n + |N| - 1, |N|)).

    PYTHONPATH=src python scripts/count_operators.py
"""

import itertools
from math import comb

from mtlfi.chain import GODEL, LUKASIEWICZ, FiniteChain
from mtlfi.operators import ConsistencyOp, enumerate_ops, validate_c


def brute_force_count(chain) -> int:
    return sum(validate_c(chain, ConsistencyOp(chain, "table", values=combo)).valid
               for combo in itertools.product(chain.elements, repeat=chain.size))


def main():
    chains = [
        FiniteChain.from_family(GODEL, 2, name="B2"),
        FiniteChain.from_family(LUKASIEWICZ, 3, name="L3"),
        FiniteChain.from_family(GODEL, 3, name="G3"),
        FiniteChain.from_family(LUKASIEWICZ, 4, name="L4"),
        FiniteChain.from_family(GODEL, 4, name="G4"),
        FiniteChain.from_family(LUKASIEWICZ, 5, name="L5"),
        FiniteChain.from_family(GODEL, 5, name="G5"),
        FiniteChain.ordinal_sum([(LUKASIEWICZ, 3), (GODEL, 3)], name="L3G3"),
        FiniteChain.ordinal_sum([(GODEL, 3), (LUKASIEWICZ, 3)], name="G3L3"),
        FiniteChain.from_negation([1, "4/5", "3/5", "2/5", "1/5", 0], name="NM6"),
    ]
    print(f"{'chain':8s} {'size':>4s} {'|N|':>4s} {'brute':>6s} {'built':>6s} "
          f"{'formula':>8s}")
    for chain in chains:
        brute = brute_force_count(chain)
        built = len(enumerate_ops(chain))
        free = len(chain.n_set().elements)
        expected = comb(chain.size + free - 1, free)
        flag = "" if brute == built == expected else "  MISMATCH"
        print(f"{chain.name:8s} {chain.size:4d} {free:4d} "
              f"{brute:6d} {built:6d} {expected:8d}{flag}")


if __name__ == "__main__":
    main()
