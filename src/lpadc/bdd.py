"""BDD manager facade over the pure Python kernel (lpadc._pybdd).

External code holds :class:`BddRef` handles.  Live handles pin their nodes:
garbage collection (a mark-and-sweep triggered by a node-count threshold)
only runs between operations and only frees nodes unreachable from pinned
references.  The manager holds no handle itself, so a manager and its
diagrams are freed by reference counting once the last handle goes.

The max-product pass for MPE and MAP (:meth:`BddManager.map_best`) lives
here rather than in the kernel: it reads the kernel's nodes and weighted
counts.
"""

from __future__ import annotations

import math

from . import _pybdd
from ._pybdd import NodeLimitError  # re-exported

DEFAULT_NODE_CAP = 1 << 22
DEFAULT_GC_THRESHOLD = 1 << 20


class BddError(Exception):
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
    __slots__ = ("var_id", "level", "group", "index", "weight", "zero_weight", "is_query")

    def __init__(self, var_id, level, group, index, weight, zero_weight, is_query):
        self.var_id = var_id
        self.level = level
        self.group = group
        self.index = index
        self.weight = weight
        self.zero_weight = zero_weight
        self.is_query = is_query


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
        return self.ref == 0

    @property
    def is_false(self):
        return self.ref == 1

    @property
    def is_complemented(self):
        return bool(self.ref & 1)

    def node_count(self):
        return self.manager.node_count(self)

    def __repr__(self):
        return "<BddRef %d (%d nodes)>" % (self.ref, self.node_count())


class BddManager:
    def __init__(self, node_cap=DEFAULT_NODE_CAP, gc_threshold=DEFAULT_GC_THRESHOLD):
        if node_cap < 1:
            raise ValueError("node_cap must be at least 1, not %r" % (node_cap,))
        self._k = _pybdd.Kernel(node_cap)
        self.gc_threshold = gc_threshold
        self._pins = {}

    # The terminals are fresh handles rather than stored ones: a stored
    # handle would point back at the manager, and the cycle would keep every
    # diagram alive until a full garbage collection.

    @property
    def true(self):
        return BddRef(self, 0)

    @property
    def false(self):
        return BddRef(self, 1)

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
        """Sweep nodes unreachable from live BddRefs; returns count freed."""
        return self._k.gc([n << 1 for n in self._pins])

    def _maybe_gc(self):
        if self._k.live_nodes() > self.gc_threshold:
            self.gc()

    # ---- variables ----

    def new_var(self, group, index, weight, zero_weight=None, is_query=False):
        """Add a Boolean variable at the bottom of the order.

        weight multiplies the 1-branch during weighted counting and
        zero_weight (default 1-weight) the 0-branch.
        """
        if zero_weight is None:
            zero_weight = 1.0 - weight
        v = self._k.new_var(weight, zero_weight, group, index, bool(is_query))
        return v

    def var(self, var_id):
        return BddRef(self, self._k.var_ref(var_id))

    def nvar(self, var_id):
        return BddRef(self, self._k.var_ref(var_id) ^ 1)

    @property
    def num_vars(self):
        return self._k.num_vars

    def var_info(self, var_id):
        k = self._k
        return BddVarInfo(
            var_id=var_id,
            level=k.var_level(var_id),
            group=k.var_group(var_id),
            index=k.var_index(var_id),
            weight=k.var_weight(var_id),
            zero_weight=k.var_zero_weight(var_id),
            is_query=k.var_is_query(var_id),
        )

    def level_order(self):
        return self._k.level_order()

    def top_level(self, a):
        """The level of the variable a tests first; num_vars for a constant."""
        return self._k.top_level(a.ref)

    # ---- operations ----

    def apply_and(self, a, b):
        self._maybe_gc()
        return BddRef(self, self._k.apply_and(a.ref, b.ref))

    def apply_or(self, a, b):
        self._maybe_gc()
        return BddRef(self, self._k.apply_or(a.ref, b.ref))

    def apply_not(self, a):
        return BddRef(self, a.ref ^ 1)

    def eval(self, a, values):
        return self._k.eval(a.ref, values)

    def prob(self, a):
        """Weighted count of the encoded formula: the sum over satisfying
        assignments of the product of branch weights.  It holds for any
        weights, and it is the probability when every variable's two
        weights sum to 1 (the order encoding guarantees this).  The count
        never subtracts, so a value near 0 keeps its digits even under a
        complemented root."""
        return self._k.prob(a.ref)

    # the same count under its general name
    wmc = prob

    def map_best(self, a):
        """Max-product pass over the query chains, in log space.

        Returns (log_value, choices, unique).  log_value is the log of the
        maximum, over values of the query groups, of the probability of
        those values times the probability of `a` given them; choices maps
        each query group the best path tests to the chain position of its
        best value, the first such position on a tie inside the group.  A
        group the best path never tests is not in choices: every one of its
        values reaches the same remainder.  unique is False when another
        selection may score as well, up to TIE_TOL: a node on the best path
        scores both branches alike, or two values of some query group have
        probabilities within TIE_TOL.  Otherwise the maximiser is the only
        one, whatever the variable order.

        The contract, which the compiler's encoding meets: every query
        variable sits above every other one, each query group's variables
        are adjacent and in chain order (bit j set means "value at position
        j", all bits clear the last value), and `a` depends on a group only
        through the value it selects.  A path can then enter a group only at
        its first bit and leaves it right after a 1-branch.  With
        m_g[j] = max(pi_j, (1 - pi_j) m_g[j+1]) and m_g[last] = 1 (the best
        conditional value once bits 0..j-1 are clear), a node testing bit j
        of group g scores max(pi_j skip V(hi), (1 - pi_j) V'(lo)), where
        V'(lo) is m_g[j+1] skip V(lo) when lo leaves g, and skip is the
        product of m_h[0] over the whole query groups h that the edge
        jumps.  The first non-query node below is a weighted-count
        boundary.
        """
        k = self._k
        order = k.level_order()
        groups = []  # in level order: (group id, var ids)
        for v in order:
            if not k.var_is_query(v):
                break
            g = k.var_group(v)
            if not groups or groups[-1][0] != g:
                groups.append((g, []))
            groups[-1][1].append(v)
        n_query = sum(len(ids) for _, ids in groups)
        if len({g for g, _ in groups}) != len(groups) or any(
            k.var_is_query(v) for v in order[n_query:]
        ):
            raise BddError(
                "map_best needs each query group's variables adjacent and "
                "above all other variables"
            )
        where = {}  # query var -> (group position, bit)
        lw1, lw0, lm, best = [], [], [], []  # per group position, by bit
        skip = [0.0]  # skip[i]: sum of log m_h[0] over positions h < i
        unique = True
        for gpos, (_, ids) in enumerate(groups):
            w1 = [_log(k.var_weight(v)) for v in ids]
            w0 = [_log(k.var_zero_weight(v)) for v in ids]
            m, arg = [0.0] * (len(ids) + 1), list(range(len(ids) + 1))
            for j in reversed(range(len(ids))):
                where[ids[j]] = (gpos, j)
                one, zero = w1[j], w0[j] + m[j + 1]
                if one >= zero:
                    m[j] = one
                else:
                    m[j], arg[j] = zero, arg[j + 1]
            # the log probability of each value, in increasing order
            lp = sorted(sum(w0[:j]) + w for j, w in enumerate(w1 + [0.0]))
            unique = unique and not any(map(_near, lp, lp[1:]))
            lw1.append(w1)
            lw0.append(w0)
            lm.append(m)
            best.append(arg)
            skip.append(skip[-1] + m[0])
        end = len(groups)

        # query node -> (group position, bit, lo, hi)
        nodes = {n: where[v] + (lo, hi) for n, v, lo, hi in k.nodes(a.ref) if v in where}
        val, score = {}, {}  # per complement: best, (1-branch, 0-branch)

        def child(ref, comp):
            """(entry group position, log value) of an edge's target."""
            comp ^= ref & 1
            n = ref >> 1
            if n in nodes:
                return nodes[n][0], val[n][comp]
            return end, _log(k.prob((n << 1) | comp))

        # deepest first, so children are scored before their parents
        for n in sorted(nodes, key=nodes.get, reverse=True):
            gpos, j, lo, hi = nodes[n]
            out = skip[gpos + 1]
            val[n], score[n] = [], []
            for comp in (0, 1):
                hpos, hval = child(hi, comp)
                s1 = lw1[gpos][j] + skip[hpos] - out + hval
                lpos, lval = child(lo, comp)
                s0 = lw0[gpos][j] + lval
                if lpos != gpos:
                    s0 += lm[gpos][j + 1] + skip[lpos] - out
                val[n].append(max(s1, s0))
                score[n].append((s1, s0))

        rpos, log_value = child(a.ref, 0)
        log_value += skip[rpos]
        choices = {}
        ref, comp = a.ref, 0
        while ref >> 1 in nodes:
            comp ^= ref & 1
            gpos, j, lo, hi = nodes[ref >> 1]
            g = groups[gpos][0]
            s1, s0 = score[ref >> 1][comp]
            unique = unique and not _near(s1, s0)
            if s1 >= s0:
                choices[g] = j
                ref = hi
            else:
                if nodes.get(lo >> 1, (end,))[0] != gpos:
                    choices[g] = best[gpos][j + 1]
                ref = lo
        return log_value, choices, unique

    # No inference path reorders.  Kept while the benchmark's tracer
    # (perfbench/tracing.py) patches reorder_groups_front by name.

    def reorder_groups_front(self, groups):
        self._k.reorder_groups_front(set(groups))

    def swap_levels(self, level):
        self._k.swap_levels(level)

    # ---- inspection ----

    def live_nodes(self):
        return self._k.live_nodes()

    def node_count(self, a):
        return self._k.node_count(a.ref)

    def nodes(self, a):
        return list(self._k.nodes(a.ref))

    def support(self, a):
        return list(self._k.support(a.ref))

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
        nodes = sorted(self.nodes(a), key=lambda t: self._k.var_level(t[1]))
        by_level = {}
        for n, v, lo, hi in nodes:
            by_level.setdefault(self._k.var_level(v), []).append(n)
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
