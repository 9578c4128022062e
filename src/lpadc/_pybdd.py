"""Pure Python BDD kernel with complement edges and weighted variables.

References are ints: ``(node_id << 1) | complement``.  The only terminal is
the 1-node (id 0), so TRUE is ref 0 and FALSE is ref 1.  The invariant that
keeps the diagram canonical: a stored 1-child is never complemented; when a
reduction would produce one, both children are flipped and the complement
moves to the incoming reference.

Every variable carries two weights: a factor applied on the 1-branch and one
on the 0-branch during weighted counting; the order encoding uses
(pi, 1 - pi).  The count memoizes per node the pair (count of f, count of
not f), each summed from the children's pairs, so it holds for any weights
and a complemented edge reads the other half instead of subtracting.
Variables also carry a group id (the owning choice variable), an index
inside the group and a query flag.  The max-product pass for MPE
and MAP is not part of the kernel: BddManager.map_best runs it over the
kernel's nodes and prob.
"""

from __future__ import annotations

import sys

TRUE = 0
FALSE = 1

_MIN_RECURSION = 5000


class NodeLimitError(Exception):
    pass


class Kernel:
    def __init__(self, node_cap=1 << 22):
        self.node_cap = node_cap
        # node 0 is the 1-terminal; children unused
        self._var = [-1]
        self._lo = [0]
        self._hi = [0]
        self._free = []
        self._uniq = []  # per variable: (lo, hi) -> node id
        self._w1 = []
        self._w0 = []
        self._group = []
        self._gindex = []
        self._isq = []
        self._level_of = []
        self._var_at = []
        self._and_cache = {}
        self._prob_memo = {}
        if sys.getrecursionlimit() < _MIN_RECURSION:
            sys.setrecursionlimit(_MIN_RECURSION)

    # ---- variables ----

    def new_var(self, weight, zero_weight, group, index, is_query):
        if not (0.0 < weight <= 1.0):
            raise ValueError("variable weight %r outside (0,1]" % weight)
        v = len(self._w1)
        self._w1.append(weight)
        self._w0.append(zero_weight)
        self._group.append(group)
        self._gindex.append(index)
        self._isq.append(is_query)
        self._level_of.append(len(self._var_at))
        self._var_at.append(v)
        self._uniq.append({})
        limit = 4 * len(self._w1) + 1000
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)
        return v

    @property
    def num_vars(self):
        return len(self._w1)

    def var_ref(self, v):
        return self._mk(v, FALSE, TRUE)

    def var_weight(self, v):
        return self._w1[v]

    def var_zero_weight(self, v):
        return self._w0[v]

    def var_group(self, v):
        return self._group[v]

    def var_index(self, v):
        return self._gindex[v]

    def var_is_query(self, v):
        return self._isq[v]

    def var_level(self, v):
        return self._level_of[v]

    def level_order(self):
        return list(self._var_at)

    def top_level(self, ref):
        return self._level_of[self._var[ref >> 1]] if ref >> 1 else len(self._var_at)

    # ---- node store ----

    def live_nodes(self):
        return len(self._var) - len(self._free) - 1

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

    # ---- operations ----

    def apply_and(self, a, b):
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
        r = self._mk(v, self.apply_and(a0, b0), self.apply_and(a1, b1))
        self._and_cache[(a, b)] = r
        return r

    def apply_or(self, a, b):
        return self.apply_and(a ^ 1, b ^ 1) ^ 1

    def eval(self, ref, values):
        """Truth value under a complete assignment (indexable by var id)."""
        comp = ref & 1
        n = ref >> 1
        while n != 0:
            child = self._hi[n] if values[self._var[n]] else self._lo[n]
            comp ^= child & 1
            n = child >> 1
        return comp == 0

    # ---- weighted counting ----

    def prob(self, ref):
        return self._pair(ref >> 1)[ref & 1]

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

    # ---- reordering ----

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
        self.clear_caches()

    def reorder_groups_front(self, groups):
        """Move all variables of the given groups to the top levels, keeping
        relative order stable inside both partitions."""
        order = self.level_order()
        target = [v for v in order if self._group[v] in groups]
        target += [v for v in order if self._group[v] not in groups]
        for tpos, v in enumerate(target):
            cur = self._level_of[v]
            while cur > tpos:
                self.swap_levels(cur - 1)
                cur -= 1

    # ---- maintenance ----

    def clear_caches(self):
        self._and_cache.clear()
        self._prob_memo.clear()

    def gc(self, roots):
        """Mark from the root refs and sweep everything else to the free
        list.  Slots are reused, never compacted, so surviving refs keep
        their meaning.  Returns the number of collected nodes."""
        marked = bytearray(len(self._var))
        marked[0] = 1
        stack = [r >> 1 for r in roots]
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
            self.clear_caches()
            # keep allocation order reproducible across identical runs
            self._free.sort()
        return collected

    # ---- inspection ----

    def nodes(self, ref):
        """Iterate reachable internal nodes as (id, var, lo, hi)."""
        seen = set()
        stack = [ref >> 1]
        while stack:
            n = stack.pop()
            if n == 0 or n in seen:
                continue
            seen.add(n)
            yield n, self._var[n], self._lo[n], self._hi[n]
            stack.append(self._lo[n] >> 1)
            stack.append(self._hi[n] >> 1)

    def node_count(self, ref):
        return sum(1 for _ in self.nodes(ref))

    def support(self, ref):
        return sorted({v for _, v, _, _ in self.nodes(ref)})
