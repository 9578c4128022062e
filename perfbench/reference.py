"""Expected answers computed from an instance's description alone.

Nothing here imports lpadc: each value follows from the family's structure
by a small closed-form recursion, so a wrong engine answer cannot also be
the reference.  check.py compares these functions with lpadc's
world-enumeration oracle on instances small enough for it.

Conventions match the engine: prob is P(query | evidence) and the programs
given a prob task carry no evidence; mpe and map return the joint
P(selection, evidence) with the query atom as evidence.
"""

from __future__ import annotations

import itertools
import math


def answer(query):
    inst = query.instance
    family, task = query.family, query.task
    if family == "graph":
        return {"prob": graph_prob, "mpe": graph_mpe, "map": graph_map}[task](inst)
    if family == "gh":
        return {"prob": gh_prob, "mpe": gh_mpe}[task](inst)
    if family == "blood":
        return {"prob": blood_prob, "mpe": blood_mpe, "map": blood_map}[task](inst)
    raise ValueError("no reference for %s" % query.label)


def agrees(value, expected, rel_tol=1e-9):
    return value is not None and math.isclose(value, expected, rel_tol=rel_tol, abs_tol=0.0)


# ---- graph: path(0, n-1) over independent edges ----


def _ancestors_of_target(g):
    """Nodes with a path to n-1 (n-1 included) and the indices of the edges
    between them: exactly the edges that lie on some 0 -> n-1 path, since
    every node >= 2 is reachable from 0 by construction."""
    t = g.n - 1
    into = {}
    for i, (u, v, _) in enumerate(g.edges):
        into.setdefault(v, []).append(u)
    anc = {t}
    stack = [t]
    while stack:
        for u in into.get(stack.pop(), ()):
            if u not in anc:
                anc.add(u)
                stack.append(u)
    rel = [i for i, (u, v, _) in enumerate(g.edges) if v in anc]
    return sorted(anc), rel


class _Frontier:
    """Two-terminal reliability P(0 reaches n-1) by a frontier DP.  The
    relevant nodes are visited in increasing order (edges only go upwards);
    a state is the set of reached nodes that still have an unvisited
    out-edge, mapped to its probability."""

    def __init__(self, g):
        self.t = g.n - 1
        self.nodes, rel = _ancestors_of_target(g)
        self.into = {v: [] for v in self.nodes}
        self.last_out = {}
        for i in rel:
            u, v, _ = g.edges[i]
            self.into[v].append((u, i))
            self.last_out[u] = max(self.last_out.get(u, -1), v)
        self.relevant = rel

    def step(self, states, w, present):
        """Visit node w, each edge i into it present with probability
        present[i].  Returns the next states, or P(reached) when w is n-1."""
        nxt = {}
        total_hit = 0.0
        for reached, pr in states.items():
            miss = 1.0
            for u, i in self.into[w]:
                if u in reached:
                    miss *= 1.0 - present[i]
            hit = 1.0 - miss
            if w == self.t:
                total_hit += pr * hit
                continue
            keep = frozenset(x for x in reached if self.last_out[x] > w)
            for key, q in ((keep | {w}, hit), (keep, miss)):
                if q > 0.0:
                    nxt[key] = nxt.get(key, 0.0) + pr * q
        return total_hit if w == self.t else nxt


_START = {frozenset([0]): 1.0}


def graph_prob(g):
    fr = _Frontier(g)
    present = {i: g.edges[i][2] for i in fr.relevant}
    states = _START
    for w in fr.nodes[1:]:
        states = fr.step(states, w, present)
    return states


def graph_mpe(g):
    """Best world with a present 0 -> n-1 path: every edge at its likelier
    state except those on the path, which are present.  The path is the
    shortest one under edge cost log(max(p, 1-p) / p)."""
    t = g.n - 1
    best = {0: (0.0, None)}
    for i, (u, v, p) in enumerate(g.edges):  # generated in increasing v
        if u in best:
            cost = best[u][0] + math.log(max(p, 1.0 - p) / p)
            if v not in best or cost < best[v][0]:
                best[v] = (cost, i)
    on_path = set()
    v = t
    while v != 0:
        i = best[v][1]
        on_path.add(i)
        v = g.edges[i][0]
    value = 1.0
    for i, (_, _, p) in enumerate(g.edges):
        value *= p if i in on_path else max(p, 1.0 - p)
    return value


def graph_map(g):
    """Maximum over the relevant query edges' states of their weight times
    the reliability with those edges fixed, times max(p, 1-p) for each
    irrelevant query edge (non-query edges are summed out, and irrelevant
    ones sum to 1).  The search fixes the query edges into each node just
    before the DP visits it, so assignments share their DP prefix."""
    fr = _Frontier(g)
    relevant = set(fr.relevant)
    factor = 1.0
    for i in g.map_edges:
        if i not in relevant:
            p = g.edges[i][2]
            factor *= max(p, 1.0 - p)

    def search(k, states, weight):
        w = fr.nodes[k]
        fixed = [i for _, i in fr.into[w] if i in g.map_edges]
        present = {i: g.edges[i][2] for _, i in fr.into[w]}
        best = 0.0
        for on_off in itertools.product((True, False), repeat=len(fixed)):
            wt = weight
            for i, on in zip(fixed, on_off):
                p = g.edges[i][2]
                wt *= p if on else 1.0 - p
                present[i] = 1.0 if on else 0.0
            nxt = fr.step(states, w, present)
            value = wt * nxt if w == fr.t else search(k + 1, nxt, wt)
            best = max(best, value)
        return best

    return factor * search(1, _START, 1.0)


# ---- gh: every true a(k), k >= 2, makes exactly one lower atom true ----


def gh_prob(g):
    """The true atoms form one chain down from a(size+1); q[k] is the chance
    that the chain from a(k) reaches a0 (a1 has no clause, so it stops)."""
    q = [1.0, 0.0]
    for k in range(2, g.size + 2):
        q.append(sum(p * q[j] for j, p in enumerate(g.heads[k])))
    return q[-1]


def gh_mpe(g):
    """Clauses off the chain take their likeliest head; along the chain the
    best ratio to that maximum is found by the same recursion."""
    scale = 1.0
    r = [1.0, 0.0]
    for k in range(2, g.size + 2):
        m = max(g.heads[k])
        scale *= m
        r.append(max(p / m * r[j] for j, p in enumerate(g.heads[k])))
    return scale * r[-1]


# ---- blood: alleles flow down a tree without shared ancestors ----

_ALLELES = ("a", "b", "o")
_TYPE_A = (("a", "a"), ("a", "o"), ("o", "a"))


def _slot_parent(b, person, side):
    """The parent whose gene copy fills (person, side), or None for founders."""
    return None if (person, side) in b.founders else person + side


def _allele_dist(b, person, side):
    parent = _slot_parent(b, person, side)
    if parent is None:
        return dict(zip(_ALLELES, b.founders[(person, side)]))
    q = b.picks[(person, side)]
    dm = _allele_dist(b, parent, "m")
    df = _allele_dist(b, parent, "f")
    return {x: q * dm[x] + (1.0 - q) * df[x] for x in _ALLELES}


def blood_prob(b):
    dm = _allele_dist(b, "p", "m")
    df = _allele_dist(b, "p", "f")
    return sum(dm[x] * df[y] for x, y in _TYPE_A)


def _best_slot(b, person, side):
    """Per allele x, the best joint weight of the choices in the subtree
    behind (person, side) that leave allele x there."""
    parent = _slot_parent(b, person, side)
    if parent is None:
        return dict(zip(_ALLELES, b.founders[(person, side)]))
    q = b.picks[(person, side)]
    bm = _best_slot(b, parent, "m")
    bf = _best_slot(b, parent, "f")
    am, af = max(bm.values()), max(bf.values())
    return {x: max(q * bm[x] * af, (1.0 - q) * bf[x] * am) for x in _ALLELES}


def blood_mpe(b):
    bm = _best_slot(b, "p", "m")
    bf = _best_slot(b, "p", "f")
    return max(bm[x] * bf[y] for x, y in _TYPE_A)


def _founder_paths(b, person, side):
    """(founder allele distribution, product of pick weight / max pick weight
    along the path) for each founder copy that (person, side) can inherit."""
    parent = _slot_parent(b, person, side)
    if parent is None:
        return [(b.founders[(person, side)], 1.0)]
    q = b.picks[(person, side)]
    m = max(q, 1.0 - q)
    out = []
    for w, pside in ((q, "m"), (1.0 - q, "f")):
        for dist, r in _founder_paths(b, parent, pside):
            out.append((dist, r * w / m))
    return out


def blood_map(b):
    """MAP over every pick: the picks decide which founder copy each of p's
    genes comes from; picks off those two paths take their likelier side."""
    scale = 1.0
    for q in b.picks.values():
        scale *= max(q, 1.0 - q)
    best = 0.0
    for dm, rm in _founder_paths(b, "p", "m"):
        for df, rf in _founder_paths(b, "p", "f"):
            dm_, df_ = dict(zip(_ALLELES, dm)), dict(zip(_ALLELES, df))
            ev = sum(dm_[x] * df_[y] for x, y in _TYPE_A)
            best = max(best, rm * rf * ev)
    return scale * best
