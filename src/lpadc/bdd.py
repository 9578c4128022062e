"""Reduced ordered BDDs with complement edges and weighted variables.

One class, :class:`BddManager`, holds the node store, the unique and
computed tables, the pins and the passes over a diagram.  Inside it a
function is an int ref, ``(node_id << 1) | complement``.  The only terminal
is the 1-node (id 0), so TRUE is ref 0 and FALSE is ref 1.  The invariant
that keeps the diagram canonical: a stored 1-child is never complemented;
when a reduction would produce one, both children are flipped and the
complement moves to the incoming reference.

Every variable carries a factor applied on the 1-branch and one on the
0-branch during weighted counting (the order encoding uses (pi, 1 - pi)),
a group id (the owning choice variable) and an index inside the group.
Which groups are query groups is the caller's to say: map_best takes
their chains as an argument.  The count memoizes per node the pair (count
of f, count of not f), each summed from the children's pairs, so it holds
for any weights and a complemented edge reads the other half instead of
subtracting.

The passes recurse once per level, so a BddManager raises the
interpreter's recursion limit for the whole process, to 4 x variables +
1,000 (at least 5,000), and never lowers it.

External code holds :class:`BddRef` handles.  Live handles pin their nodes:
garbage collection (a mark-and-sweep triggered by a node-count threshold)
only runs between operations and only frees nodes unreachable from pinned
references.  The manager holds no handle itself, so a manager and its
diagrams are freed by reference counting once the last handle goes.  The
public operations take and return handles; the recursions under them call
only the int-level methods (_and, _mk, _pair), so a wrapper around a public
name (as perfbench/tracing.py installs) sees one call per operation.
"""

from __future__ import annotations

import math
import sys

TRUE = 0
FALSE = 1

DEFAULT_NODE_CAP = 1 << 22
DEFAULT_GC_THRESHOLD = 1 << 20

_MIN_RECURSION = 5000


class BddError(Exception):
    pass


class NodeLimitError(Exception):
    pass


def default_kernel():
    """The name of the BDD kernel, which is always "py".  Kept because the
    benchmark worker (perfbench/worker.py) reports it."""
    return "py"


def _log(x):
    return math.log(x) if x > 0.0 else -math.inf


# relative tolerance of a tie between log scores: far above the rounding of a
# log-space sum, far below any real difference between two selections
TIE_TOL = 1e-9


def _near(a, b):
    """Whether log scores a and b tie.  Only finite scores can: against
    -inf the difference is inf, and between two -inf it is nan."""
    return abs(a - b) <= TIE_TOL * max(1.0, abs(max(a, b)))


class BddVarInfo:
    __slots__ = ("var_id", "level", "group", "index", "weight", "zero_weight")

    def __init__(self, var_id, level, group, index, weight, zero_weight):
        self.var_id = var_id
        self.level = level
        self.group = group
        self.index = index
        self.weight = weight
        self.zero_weight = zero_weight


class BddRef:
    """A pinned handle to a BDD function."""

    __slots__ = ("manager", "ref", "__weakref__")

    def __init__(self, manager, ref):
        self.manager = manager
        self.ref = ref
        manager._pin(ref)

    def __del__(self):
        try:
            self.manager._unpin(self.ref)
        except Exception:
            pass

    def __and__(self, other):
        return self.manager.apply_and(self, other)

    def __or__(self, other):
        return self.manager.apply_or(self, other)

    def __invert__(self):
        return self.manager.apply_not(self)

    def __eq__(self, other):
        return (
            isinstance(other, BddRef)
            and other.manager is self.manager
            and other.ref == self.ref
        )

    def __hash__(self):
        return hash((id(self.manager), self.ref))

    @property
    def is_true(self):
        return self.ref == TRUE

    @property
    def is_false(self):
        return self.ref == FALSE

    def node_count(self):
        return self.manager.node_count(self)

    def __repr__(self):
        return "<BddRef %d (%d nodes)>" % (self.ref, self.node_count())


class BddManager:
    def __init__(self, node_cap=DEFAULT_NODE_CAP):
        if node_cap < 1:
            raise ValueError("node_cap must be at least 1, not %r" % (node_cap,))
        self.node_cap = node_cap
        # per node; node 0 is the 1-terminal and its children are unused
        self._var = [-1]
        self._lo = [0]
        self._hi = [0]
        self._free = []
        # per variable
        self._uniq = []  # (lo, hi) -> node id
        self._w1 = []
        self._w0 = []
        self._group = []
        self._gindex = []
        self._level_of = []
        self._var_at = []  # per level: the variable there
        self._and_cache = {}
        self._prob_memo = {}
        self._pins = {}  # node id -> number of live handles
        if sys.getrecursionlimit() < _MIN_RECURSION:
            sys.setrecursionlimit(_MIN_RECURSION)

    # The terminals are fresh handles rather than stored ones: a stored
    # handle would point back at the manager, and the cycle would keep every
    # diagram alive until a full garbage collection.

    @property
    def true(self):
        return BddRef(self, TRUE)

    @property
    def false(self):
        return BddRef(self, FALSE)

    # ---- pinning / gc ----

    def _pin(self, ref):
        node = ref >> 1
        self._pins[node] = self._pins.get(node, 0) + 1

    def _unpin(self, ref):
        node = ref >> 1
        left = self._pins.get(node, 0) - 1
        if left <= 0:
            self._pins.pop(node, None)
        else:
            self._pins[node] = left

    def gc(self):
        """Mark from the nodes of live BddRefs and sweep everything else to
        the free list.  Slots are reused, never compacted, so surviving refs
        keep their meaning.  Returns the number of collected nodes."""
        marked = bytearray(len(self._var))
        marked[0] = 1
        stack = list(self._pins)
        lo, hi = self._lo, self._hi
        while stack:
            n = stack.pop()
            if marked[n]:
                continue
            marked[n] = 1
            stack.append(lo[n] >> 1)
            stack.append(hi[n] >> 1)
        collected = 0
        for tab in self._uniq:
            dead = [key for key, n in tab.items() if not marked[n]]
            for key in dead:
                self._free.append(tab.pop(key))
                collected += 1
        if collected:
            self._clear_caches()
            # keep allocation order reproducible across identical runs
            self._free.sort()
        return collected

    def _maybe_gc(self):
        if len(self._var) - len(self._free) - 1 > DEFAULT_GC_THRESHOLD:
            self.gc()  # the public name: a collection is its own traced step

    def _clear_caches(self):
        self._and_cache.clear()
        self._prob_memo.clear()

    # ---- variables ----

    def new_var(self, group, index, weight, zero_weight=None):
        """Add a Boolean variable at the bottom of the order.

        weight multiplies the 1-branch during weighted counting and
        zero_weight (default 1-weight) the 0-branch.
        """
        if not (0.0 < weight <= 1.0):
            raise ValueError("variable weight %r outside (0,1]" % weight)
        v = len(self._w1)
        self._w1.append(weight)
        self._w0.append(1.0 - weight if zero_weight is None else zero_weight)
        self._group.append(group)
        self._gindex.append(index)
        self._level_of.append(len(self._var_at))
        self._var_at.append(v)
        self._uniq.append({})
        limit = 4 * len(self._w1) + 1000
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)
        return v

    def var(self, var_id):
        return BddRef(self, self._mk(var_id, FALSE, TRUE))

    def nvar(self, var_id):
        return BddRef(self, self._mk(var_id, FALSE, TRUE) ^ 1)

    @property
    def num_vars(self):
        return len(self._w1)

    def var_info(self, var_id):
        return BddVarInfo(
            var_id=var_id,
            level=self._level_of[var_id],
            group=self._group[var_id],
            index=self._gindex[var_id],
            weight=self._w1[var_id],
            zero_weight=self._w0[var_id],
        )

    def level_order(self):
        return list(self._var_at)

    def top_level(self, a):
        """The level of the variable a tests first; num_vars for a constant."""
        n = a.ref >> 1
        return self._level_of[self._var[n]] if n else len(self._var_at)

    # ---- operations ----

    def apply_and(self, a, b):
        self._maybe_gc()
        return BddRef(self, self._and(a.ref, b.ref))

    def apply_or(self, a, b):
        self._maybe_gc()
        return BddRef(self, self._and(a.ref ^ 1, b.ref ^ 1) ^ 1)

    def apply_not(self, a):
        return BddRef(self, a.ref ^ 1)

    def cube(self, literals):
        """The conjunction of (var_id, positive) literals over distinct
        variables, built bottom-up with one node per literal."""
        if len({v for v, _ in literals}) != len(literals):
            raise BddError("a cube tests each variable once")
        self._maybe_gc()
        level = self._level_of
        ref = TRUE
        for v, positive in sorted(literals, key=lambda lit: level[lit[0]], reverse=True):
            ref = self._mk(v, FALSE, ref) if positive else self._mk(v, ref, FALSE)
        return BddRef(self, ref)

    def _mk(self, v, lo, hi):
        if lo == hi:
            return lo
        comp = hi & 1
        if comp:
            lo ^= 1
            hi ^= 1
        tab = self._uniq[v]
        key = (lo, hi)
        n = tab.get(key)
        if n is None:
            if len(self._var) - len(self._free) - 1 >= self.node_cap:
                raise NodeLimitError(
                    "node store exceeds the cap of %d" % self.node_cap
                )
            if self._free:
                n = self._free.pop()
                self._var[n] = v
                self._lo[n] = lo
                self._hi[n] = hi
            else:
                n = len(self._var)
                self._var.append(v)
                self._lo.append(lo)
                self._hi.append(hi)
            tab[key] = n
        return (n << 1) | comp

    def _and(self, a, b):
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == FALSE or b == FALSE:
            return FALSE
        if a == b:
            return a
        if a ^ b == 1:
            return FALSE
        if a > b:
            a, b = b, a
        hit = self._and_cache.get((a, b))
        if hit is not None:
            return hit
        na, nb = a >> 1, b >> 1
        la = self._level_of[self._var[na]]
        lb = self._level_of[self._var[nb]]
        if la <= lb:
            v = self._var[na]
            ca = a & 1
            a1 = self._hi[na] ^ ca
            a0 = self._lo[na] ^ ca
        else:
            v = self._var[nb]
            a1 = a0 = a
        if lb <= la:
            v = self._var[nb] if lb < la else v
            cb = b & 1
            b1 = self._hi[nb] ^ cb
            b0 = self._lo[nb] ^ cb
        else:
            b1 = b0 = b
        r = self._mk(v, self._and(a0, b0), self._and(a1, b1))
        self._and_cache[(a, b)] = r
        return r

    def eval(self, a, values):
        """Truth value under a complete assignment (indexable by var id)."""
        comp = a.ref & 1
        n = a.ref >> 1
        while n != 0:
            child = self._hi[n] if values[self._var[n]] else self._lo[n]
            comp ^= child & 1
            n = child >> 1
        return comp == 0

    # ---- weighted counting and max-product ----

    def prob(self, a):
        """Weighted count of the encoded formula: the sum over satisfying
        assignments of the product of branch weights.  It holds for any
        weights, and it is the probability when every variable's two
        weights sum to 1 (the order encoding's do, up to rounding).  The count
        never subtracts, so a value near 0 keeps its digits even under a
        complemented root."""
        return self._pair(a.ref >> 1)[a.ref & 1]

    # the same count under its general name
    wmc = prob

    def _pair(self, n):
        """(count of the node's function, count of its complement).  Both
        are sums of products of branch weights, so no complement is ever
        taken by subtraction and neither loses digits near 1."""
        if n == 0:
            return (1.0, 0.0)
        hit = self._prob_memo.get(n)
        if hit is not None:
            return hit
        lo = self._lo[n]
        h1, h0 = self._pair(self._hi[n] >> 1)
        l1, l0 = self._pair(lo >> 1)
        if lo & 1:
            l1, l0 = l0, l1
        v = self._var[n]
        w1, w0 = self._w1[v], self._w0[v]
        res = (w1 * h1 + w0 * l1, w1 * h0 + w0 * l0)
        self._prob_memo[n] = res
        return res

    def map_best(self, a, chains):
        """Max-product pass over the query chains, in log space.

        chains maps each query group id to its variable ids in chain order,
        the order of its bits; the order of its keys does not matter.
        Returns (log_value, choices).  log_value is the log of the maximum,
        over values of the query groups, of the probability of those values
        times the probability of `a` given them.  choices maps every query
        group to the chain position of its value in the first maximiser: of
        the selections that score alike up to TIE_TOL, the one whose chain
        positions, compared group by group in increasing group id, come
        first.  So the pick does not depend on the variable order.

        The contract, which the compiler's encoding meets: the chains,
        concatenated in level order, fill the top levels of the diagram, so
        every query variable sits above every other one and each chain's
        variables are adjacent and in chain order (bit j set means "value at
        position j", all bits clear the last value); BddError otherwise.
        And `a` depends on a group only through the value it selects.  A
        path can then enter a group only at its first bit and leaves it
        right after a 1-branch.  With
        m_g[j] = max(pi_j, (1 - pi_j) m_g[j+1]) and m_g[last] = 1 (the best
        conditional value once bits 0..j-1 are clear), a node testing bit j
        of group g scores max(pi_j skip V(hi), (1 - pi_j) V'(lo)), where
        V'(lo) is m_g[j+1] skip V(lo) when lo leaves g, and skip is the
        product of m_h[0] over the whole query groups h that the edge
        jumps.  The pass walks only the query nodes: the first non-query
        node of a path is a boundary, scored by its memoized weighted count.

        Ties are settled in the same pass.  A group that a path jumps or
        leaves reaches the same remainder with each of its values, so it
        takes the first position attaining m_g.  The groups below a node
        are disjoint from those above it, so the first maximiser from a node
        is the first of its two branches' first ones.  Where the two
        branches score alike, the pass follows the branches already taken
        below each of them, compares the values the two paths decide in
        group order (a group a path jumps at its first best value) and keeps
        the branch whose selection comes first.
        """
        groups = sorted(chains.items(), key=lambda item: self._level_of[item[1][0]])
        query_vars = [v for _, ids in groups for v in ids]
        if query_vars != self._var_at[:len(query_vars)]:
            raise BddError(
                "map_best needs each query chain's variables adjacent, in "
                "chain order and above all other variables"
            )
        where = {}  # query var -> (group position, bit)
        lw1, lw0, lm, best = [], [], [], []  # per group position, by bit
        skip = [0.0]  # skip[i]: sum of log m_h[0] over positions h < i
        for gpos, (_, ids) in enumerate(groups):
            w1 = [_log(self._w1[v]) for v in ids]
            w0 = [_log(self._w0[v]) for v in ids]
            m, arg = [0.0] * (len(ids) + 1), list(range(len(ids) + 1))
            for j in reversed(range(len(ids))):
                where[ids[j]] = (gpos, j)
                one, zero = w1[j], w0[j] + m[j + 1]
                m[j] = max(one, zero)
                if one < zero and not _near(one, zero):
                    arg[j] = arg[j + 1]
            lw1.append(w1)
            lw0.append(w0)
            lm.append(m)
            best.append(arg)
            skip.append(skip[-1] + m[0])
        end = len(groups)

        # query node -> (group position, bit, lo, hi), collected from the
        # root down to the first non-query node of each path
        var, lo_of, hi_of = self._var, self._lo, self._hi
        nodes = {}
        stack = [a.ref >> 1]
        while stack:
            n = stack.pop()
            if n in nodes or var[n] not in where:  # the terminal's var is -1
                continue
            lo, hi = lo_of[n], hi_of[n]
            nodes[n] = where[var[n]] + (lo, hi)
            stack += (lo >> 1, hi >> 1)
        pair = self._pair
        val, take_hi = {}, {}  # per complement: best, whether the 1-branch wins

        def child(ref, comp):
            """(entry group position, log value) of an edge's target."""
            comp ^= ref & 1
            n = ref >> 1
            if n in nodes:
                return nodes[n][0], val[n][comp]
            return end, _log(pair(n)[comp])

        # the pick of a group a path jumps: every value reaches the same
        # remainder, so its first most probable one
        top = {g: best[gpos][0] for gpos, (g, _) in enumerate(groups)}

        def walk(ref, comp, out):
            """Follow the taken branches from the edge ref, setting in out the
            chain position of each group a branch decides."""
            while ref >> 1 in nodes:
                comp ^= ref & 1
                gpos, j, lo, hi = nodes[ref >> 1]
                if take_hi[ref >> 1][comp]:
                    out[groups[gpos][0]] = j
                    ref = hi
                else:
                    if nodes.get(lo >> 1, (end,))[0] != gpos:  # exits the group
                        out[groups[gpos][0]] = best[gpos][j + 1]
                    ref = lo
            return out

        # deepest first, so children are scored before their parents
        for n in sorted(nodes, key=nodes.get, reverse=True):
            gpos, j, lo, hi = nodes[n]
            g, out = groups[gpos][0], skip[gpos + 1]
            val[n], take_hi[n] = [], []
            for comp in (0, 1):
                hpos, hval = child(hi, comp)
                s1 = lw1[gpos][j] + skip[hpos] - out + hval
                lpos, lval = child(lo, comp)
                s0 = lw0[gpos][j] + lval
                if lpos != gpos:
                    s0 += lm[gpos][j + 1] + skip[lpos] - out
                val[n].append(max(s1, s0))
                if not _near(s1, s0):
                    take_hi[n].append(s1 > s0)
                    continue
                # compare the two branches' selections in group order
                one = walk(hi, comp, {g: j})
                zero = walk(lo, comp, {} if lpos == gpos else {g: best[gpos][j + 1]})
                keys = sorted(one.keys() | zero.keys())
                take_hi[n].append([one.get(h, top[h]) for h in keys]
                                  < [zero.get(h, top[h]) for h in keys])

        rpos, log_value = child(a.ref, 0)
        return log_value + skip[rpos], walk(a.ref, 0, top)

    # ---- reordering ----
    # No inference path reorders.  Kept while the benchmark's tracer
    # (perfbench/tracing.py) patches reorder_groups_front by name.

    def swap_levels(self, level):
        """Exchange the variables at level and level+1 in place.

        Nodes keep their ids (external references stay valid); only nodes of
        the upper variable that reach the lower one are rewritten.
        """
        x = self._var_at[level]
        y = self._var_at[level + 1]
        var, lo, hi = self._var, self._lo, self._hi
        xtab = self._uniq[x]
        interacting = [
            n
            for n in xtab.values()
            if var[lo[n] >> 1] == y or var[hi[n] >> 1] == y
        ]
        for n in interacting:
            del xtab[(lo[n], hi[n])]
        ytab = self._uniq[y]
        for n in interacting:
            h = hi[n]
            l = lo[n]
            hn = h >> 1
            if var[hn] == y:
                f11, f10 = hi[hn], lo[hn]
            else:
                f11 = f10 = h
            ln = l >> 1
            lc = l & 1
            if var[ln] == y:
                f01, f00 = hi[ln] ^ lc, lo[ln] ^ lc
            else:
                f01 = f00 = l
            g1 = self._mk(x, f01, f11)
            g0 = self._mk(x, f00, f10)
            # f11 is a stored 1-child, hence regular, so g1 is regular and
            # the relabeled node needs no complement fixup
            var[n] = y
            lo[n] = g0
            hi[n] = g1
            ytab[(g0, g1)] = n
        self._var_at[level] = y
        self._var_at[level + 1] = x
        self._level_of[x] = level + 1
        self._level_of[y] = level
        self._clear_caches()

    def reorder_groups_front(self, groups):
        """Move all variables of the given groups to the top levels, keeping
        relative order stable inside both partitions."""
        groups = set(groups)
        order = list(self._var_at)
        target = [v for v in order if self._group[v] in groups]
        target += [v for v in order if self._group[v] not in groups]
        for tpos, v in enumerate(target):
            cur = self._level_of[v]
            while cur > tpos:
                self.swap_levels(cur - 1)
                cur -= 1

    # ---- inspection ----

    def live_nodes(self):
        return len(self._var) - len(self._free) - 1

    def nodes(self, a):
        """The internal nodes reachable from a, as (id, var, lo, hi)."""
        var, lo, hi = self._var, self._lo, self._hi
        out, seen, stack = [], {0}, [a.ref >> 1]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            out.append((n, var[n], lo[n], hi[n]))
            stack.append(lo[n] >> 1)
            stack.append(hi[n] >> 1)
        return out

    def node_count(self, a):
        return len(self.nodes(a))

    def var_name(self, var_id):
        info = self.var_info(var_id)
        return "x%d_%d" % (info.group, info.index)

    def to_dot(self, a, var_name=None, graph_name="bdd"):
        """GraphViz rendering: solid 1-edges, dashed 0-edges, dotted when the
        0-edge is complemented; the entry edge is dotted for a complemented
        root."""
        if var_name is None:
            var_name = self.var_name
        lines = [
            "digraph %s {" % graph_name,
            "  node [shape=circle];",
            '  one [shape=box, label="1"];',
            '  entry [shape=point, label=""];',
        ]
        level_of = self._level_of
        nodes = sorted(self.nodes(a), key=lambda t: level_of[t[1]])
        by_level = {}
        for n, v, lo, hi in nodes:
            by_level.setdefault(level_of[v], []).append(n)
        for n, v, lo, hi in nodes:
            lines.append('  n%d [label="%s"];' % (n, var_name(v)))
        root_style = "dotted" if a.ref & 1 else "solid"
        target = "one" if a.ref >> 1 == 0 else "n%d" % (a.ref >> 1)
        lines.append("  entry -> %s [style=%s];" % (target, root_style))
        for n, v, lo, hi in nodes:
            ht = "one" if hi >> 1 == 0 else "n%d" % (hi >> 1)
            lines.append("  n%d -> %s [style=solid];" % (n, ht))
            lt = "one" if lo >> 1 == 0 else "n%d" % (lo >> 1)
            lstyle = "dotted" if lo & 1 else "dashed"
            lines.append("  n%d -> %s [style=%s];" % (n, lt, lstyle))
        for level in sorted(by_level):
            members = " ".join("n%d;" % n for n in by_level[level])
            lines.append("  { rank=same; %s }" % members)
        lines.append("}")
        return "\n".join(lines) + "\n"
