"""Seeded LPAD program text for the benchmark families.

The families follow the experiments of Bellodi, Alberti, Riguzzi and Zese,
"MAP inference for probabilistic logic programming" (TPLP 2020):

  graph  random directed graph, preferential attachment with two edges per
         new node; path(0, n-1) asks for a path of present edges
  gh     a chain of clauses with a growing number of heads
  blood  blood type inheritance over a binary ancestor tree

Each instance is a plain description (sizes and every probability) that
renders to program text; the benchmark hands only that text to the engine
and computes the expected answer from the same description in reference.py.
Probabilities are printed with repr, so the engine parses back the exact
floats the reference uses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple  # ((u, v, p), ...), u < v
    map_edges: frozenset  # indices into edges marked map_query


@dataclass(frozen=True)
class Gh:
    size: int
    heads: tuple  # heads[k] = probabilities of a0..a(k-1) for body a(k); k < 2 unused


@dataclass(frozen=True)
class Blood:
    depth: int
    founders: dict  # (person, side) -> (p_a, p_b, p_o)
    picks: dict  # (child, side) -> probability of taking the parent's m copy
    map_picks: bool


@dataclass(frozen=True)
class Query:
    """One benchmark query: program text plus the task run on it."""

    family: str
    size: int
    task: str  # prob | mpe | map
    instance: object  # Graph | Gh | Blood
    text: str

    @property
    def label(self):
        return "%s-%d-%s" % (self.family, self.size, self.task)


def _weight(rng):
    """A probability kept away from 0 and 1, where the grounder and the
    reference would otherwise see degenerate clauses."""
    return 0.05 + 0.9 * rng.random()


def _split(rng, k):
    """k head probabilities summing to 1 (up to rounding)."""
    w = [_weight(rng) for _ in range(k)]
    s = sum(w)
    return tuple(x / s for x in w)


def make_graph(n, rng, map_fraction=None):
    degree = [0] * n
    edges = []
    for i in range(2, n):
        targets = set()
        while len(targets) < 2:
            pool = [u for u in range(i) if u not in targets]
            weights = [degree[u] for u in pool]
            if sum(weights) == 0:
                targets.add(rng.choice(pool))
            else:
                targets.add(rng.choices(pool, weights=weights)[0])
        for u in sorted(targets):
            edges.append((u, i, _weight(rng)))
            degree[u] += 1
            degree[i] += 1
    marked = frozenset()
    if map_fraction is not None:
        k = max(1, round(map_fraction * len(edges)))
        marked = frozenset(rng.sample(range(len(edges)), k))
    return Graph(n, tuple(edges), marked)


def graph_text(g, evidence):
    lines = []
    for i, (u, v, p) in enumerate(g.edges):
        prefix = "map_query " if i in g.map_edges else ""
        lines.append("%sedge(%d, %d):%r." % (prefix, u, v, p))
    lines.extend("node(%d)." % i for i in range(g.n))
    lines.append("path(X, X) :- node(X).")
    lines.append("path(X, Y) :- path(X, Z), edge(Z, Y).")
    goal = "path(0, %d)" % (g.n - 1)
    lines.append("query(%s)." % goal)
    if evidence:
        lines.append("evidence(%s)." % goal)
    return "\n".join(lines) + "\n"


def make_gh(size, rng):
    heads = [()] * 2 + [_split(rng, k) for k in range(2, size + 2)]
    return Gh(size, tuple(heads))


def gh_text(g, evidence):
    lines = []
    for k in range(2, g.size + 2):
        heads = "; ".join("a%d:%r" % (i, p) for i, p in enumerate(g.heads[k]))
        lines.append("%s :- a%d." % (heads, k))
    lines.append("a%d." % (g.size + 1))
    lines.append("query(a0).")
    if evidence:
        lines.append("evidence(a0).")
    return "\n".join(lines) + "\n"


def blood_levels(depth):
    """Persons by generation: p, then one m/f suffix per generation up."""
    levels = [["p"]]
    for _ in range(depth):
        levels.append([who + s for who in levels[-1] for s in ("m", "f")])
    return levels


def make_blood(depth, rng, map_picks=False):
    levels = blood_levels(depth)
    founders = {
        (who, side): _split(rng, 3) for who in levels[-1] for side in ("m", "f")
    }
    picks = {
        (child, side): _weight(rng)
        for lvl in levels[:-1]
        for child in lvl
        for side in ("m", "f")
    }
    return Blood(depth, founders, picks, map_picks)


_BLOODTYPE_RULES = (
    "bloodtype(X, a) :- gene(X, m, a), gene(X, f, a).",
    "bloodtype(X, a) :- gene(X, m, a), gene(X, f, o).",
    "bloodtype(X, a) :- gene(X, m, o), gene(X, f, a).",
    "bloodtype(X, b) :- gene(X, m, b), gene(X, f, b).",
    "bloodtype(X, b) :- gene(X, m, b), gene(X, f, o).",
    "bloodtype(X, b) :- gene(X, m, o), gene(X, f, b).",
    "bloodtype(X, ab) :- gene(X, m, a), gene(X, f, b).",
    "bloodtype(X, ab) :- gene(X, m, b), gene(X, f, a).",
    "bloodtype(X, o) :- gene(X, m, o), gene(X, f, o).",
)


def blood_text(b, evidence):
    lines = []
    for (who, side), (pa, pb, po) in b.founders.items():
        lines.append(
            "gene(%s, %s, a):%r; gene(%s, %s, b):%r; gene(%s, %s, o):%r."
            % (who, side, pa, who, side, pb, who, side, po)
        )
    prefix = "map_query " if b.map_picks else ""
    for (child, side), q in b.picks.items():
        lines.append(
            "%spick%s(%s, m):%r; pick%s(%s, f):%r."
            % (prefix, side, child, q, side, child, 1.0 - q)
        )
        lines.append(
            "gene(%s, %s, G) :- pick%s(%s, S), gene(%s, S, G)."
            % (child, side, side, child, child + side)
        )
    lines.extend(_BLOODTYPE_RULES)
    lines.append("query(bloodtype(p, a)).")
    if evidence:
        lines.append("evidence(bloodtype(p, a)).")
    return "\n".join(lines) + "\n"


def make_query(family, size, task, rng):
    """Generate one query; maximisation tasks condition on the query atom,
    and graph MAP marks half of the edges as query variables."""
    evidence = task != "prob"
    if family == "graph":
        inst = make_graph(size, rng, 0.5 if task == "map" else None)
        text = graph_text(inst, evidence)
    elif family == "gh":
        if task == "map":
            raise ValueError("the gh family has no MAP query set")
        inst = make_gh(size, rng)
        text = gh_text(inst, evidence)
    elif family == "blood":
        inst = make_blood(size, rng, map_picks=task == "map")
        text = blood_text(inst, evidence)
    else:
        raise ValueError("unknown family %r" % (family,))
    return Query(family, size, task, inst, text)
