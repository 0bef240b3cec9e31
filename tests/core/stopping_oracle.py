"""Reference stopping-set search: the recursive DFS the package shipped
before the level-synchronous search in :mod:`repro.core.critical`.

Kept verbatim as the oracle that pins the historical output: every
critical-set family, its order, and the ``nodes_expanded`` count that
earlier versions reported were produced by exactly this search.  Do
not "modernise" it.

Two additions, neither of which changes what the DFS visits:

* ``expanded_by_size`` splits ``nodes_expanded`` by set size.  The sets
  a search with bound ``b`` visits are exactly the sets of size <= ``b``
  that a search with a larger bound visits, in the same order, so one
  run at the largest bound yields the family and the count of every
  smaller bound.
* :func:`oracle_min_bad_stopping_set_containing` deepens from bound 1,
  not 2, so a seed that is itself a bad stopping set is found (the
  shipped version returned ``None`` for it at ``max_size=1``).
"""

from __future__ import annotations

from collections import Counter


class StoppingSearch:
    """Shared DFS engine for stopping-set enumeration and minimisation."""

    def __init__(self, graph):
        self.graph = graph
        self.members = graph.constraint_members()
        self.node_cons = graph.node_constraints()
        # A violated constraint is held as ``options * num_cons + index``
        # so the minimum of a set of them is the one with fewest branch
        # options, lowest index first.
        self.code = [
            (len(m) - 1) * len(self.members) + ci
            for ci, m in enumerate(self.members)
        ]
        self.is_data = [False] * graph.num_nodes
        for d in graph.data_nodes:
            self.is_data[d] = True
        self.nodes_expanded = 0
        self.expanded_by_size = Counter()

    def enumerate(self, seed, max_size, forbidden, collect, minimize=False):
        """Collect stopping sets containing ``seed`` up to ``max_size``."""
        num_cons = len(self.members)
        cnt = [0] * num_cons
        code = self.code
        violated: set[int] = set()
        s: set[int] = set()
        visited: set[frozenset[int]] = set()
        bound = [max_size]
        data = self.is_data
        node_cons = self.node_cons

        def add(node):
            s.add(node)
            for ci in node_cons[node]:
                c = cnt[ci] = cnt[ci] + 1
                if c == 1:
                    violated.add(code[ci])
                elif c == 2:
                    violated.discard(code[ci])

        def remove(node):
            s.discard(node)
            for ci in node_cons[node]:
                c = cnt[ci] = cnt[ci] - 1
                if c == 1:
                    violated.add(code[ci])
                elif c == 0:
                    violated.discard(code[ci])

        def dfs():
            key = frozenset(s)
            if key in visited:
                return
            visited.add(key)
            self.nodes_expanded += 1
            self.expanded_by_size[len(s)] += 1
            if len(s) > bound[0]:
                return
            if not violated:
                collect.append(key)
                if minimize and any(data[n] for n in key):
                    bound[0] = min(bound[0], len(key))
                return
            if len(s) >= bound[0]:
                return  # cannot grow further
            for cand in self.members[min(violated) % num_cons]:
                if cand in s or cand in forbidden:
                    continue
                add(cand)
                dfs()
                remove(cand)

        add(seed)
        dfs()
        remove(seed)


def oracle_minimal_bad_stopping_sets(graph, max_size):
    """``(minimal sets in output order, the search)``."""
    search = StoppingSearch(graph)
    found = []
    for pos, d in enumerate(graph.data_nodes):
        collect = []
        search.enumerate(
            seed=d,
            max_size=max_size,
            forbidden=frozenset(graph.data_nodes[:pos]),
            collect=collect,
        )
        found.extend(collect)
    found.sort(key=len)
    minimal = []
    for s in found:
        if not any(m <= s for m in minimal):
            minimal.append(s)
    return minimal, search


def oracle_min_bad_stopping_set_containing(graph, node, max_size):
    """Smallest stopping set through data node ``node``, or ``None``."""
    search = StoppingSearch(graph)
    for bound in range(1, max_size + 1):
        collect = []
        search.enumerate(
            seed=node,
            max_size=bound,
            forbidden=frozenset(),
            collect=collect,
            minimize=True,
        )
        if collect:
            return min(collect, key=len)
    return None


def oracle_at_every_size(graph, max_size):
    """``{bound: (minimal sets, nodes_expanded)}`` for bounds 1..max_size,
    from one search at ``max_size``."""
    family, search = oracle_minimal_bad_stopping_sets(graph, max_size)
    by_size = search.expanded_by_size
    return {
        bound: (
            [s for s in family if len(s) <= bound],
            sum(by_size[size] for size in range(1, bound + 1)),
        )
        for bound in range(1, max_size + 1)
    }
