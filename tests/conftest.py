import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

EX1 = """\
red(b1):0.6; green(b1):0.3; blue(b1):0.1 :- pick(b1).
pick(b1):0.6; no_pick(b1):0.4.
ev :- \\+ blue(b1).
"""

EX2 = """\
map_query red(b1):0.6; green(b1):0.3; blue(b1):0.1 :- pick(b1).
map_query pick(b1):0.6; no_pick(b1):0.4.
ev :- \\+ blue(b1).
"""

EX3 = """\
red(b1):0.6; green(b1):0.3; blue(b1):0.1 :- pick(b1).
map_query pick(b1):0.6; no_pick(b1):0.4.
ev :- \\+ blue(b1).
"""

EX4 = """\
map_query disease:0.05.
map_query malfunction:0.05.
positive :- malfunction.
map_query positive:0.999 :- disease.
map_query positive:0.0001 :- \\+(malfunction), \\+(disease).
"""


@pytest.fixture(params=["py"])
def kernel(request):
    """Only keeps the recorded ids of the tests that take this fixture,
    such as test_prob_matches_brute_force[py].  lpadc has one BDD class
    (lpadc.bdd.BddManager), and no test reads the value."""
    return request.param


@pytest.fixture
def ex1():
    return EX1


@pytest.fixture
def ex2():
    return EX2


@pytest.fixture
def ex3():
    return EX3


@pytest.fixture
def ex4():
    return EX4
