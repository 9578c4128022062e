"""Cross-check the benchmark's references against lpadc's world-enumeration
oracle on instances small enough to enumerate.

    python3 perfbench/check.py

Run from the repository root.  Exits 1 and names the instance on the first
disagreement.  The oracle shares only the parser and grounder with the
engine, and the references share nothing, so agreement here is what lets
the benchmark trust a reference on sizes the oracle cannot reach.
"""

from __future__ import annotations

import os
import sys
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from families import make_query  # noqa: E402
from reference import agrees, answer  # noqa: E402

# (family, sizes, tasks): sizes kept to at most ~2^16 worlds
CASES = (
    ("graph", (3, 4, 5, 6, 7), ("prob", "mpe", "map")),
    ("gh", (1, 2, 3, 4), ("prob", "mpe")),
    ("blood", (1,), ("prob", "mpe", "map")),
)
SEEDS = range(6)


def oracle_value(query):
    from lpadc import oracle
    from lpadc.grounder import ground
    from lpadc.model import Literal
    from lpadc.parser import parse_program

    program = parse_program(query.text)
    gp = ground(program)
    if query.task == "prob":
        return oracle.exact_prob(gp, [Literal(program.queries[0])])
    evidence = list(program.evidence)
    if query.task == "mpe":
        return oracle.exact_mpe(gp, evidence)[0]
    flagged = [cv.index for cv in gp.choice_vars if cv.is_query]
    return oracle.exact_map(gp, evidence, flagged)[0]


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    checked = 0
    for family, sizes, tasks in CASES:
        for size in sizes:
            for task in tasks:
                for seed in SEEDS:
                    q = make_query(family, size, task, Random(seed))
                    want, got = answer(q), oracle_value(q)
                    if not agrees(want, got):
                        print("MISMATCH %s seed %d: reference %r, oracle %r"
                              % (q.label, seed, want, got))
                        return 1
                    checked += 1
    print("references agree with the oracle on %d instances" % checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
