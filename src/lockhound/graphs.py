"""Graph algorithms over adjacency dicts, which map every node to its
successors (`pred`: to its predecessors): strongly connected components
(Tarjan, SIAM J. Comput. 1972), immediate dominators (Cooper, Harvey &
Kennedy, "A Simple, Fast Dominance Algorithm", 2001) and cycles by length.
"""

from __future__ import annotations

from collections.abc import Iterator


def sccs(succ: dict) -> list[list]:
    """The strongly connected components, each a list of its nodes: an
    iterative Tarjan, so it finds a component after those it reaches."""
    index, low = {}, {}  # low is len(succ) once a node's component is out
    stack, comps = [], []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == index[v]:  # v roots the stack above it
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                    low.update(dict.fromkeys(comp, len(succ)))
                    comps.append(comp)
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comps


def idoms(succ: dict, pred: dict, root) -> dict:
    """The immediate dominator of each node that root reaches, root left
    out: Cooper-Harvey-Kennedy, iterated in reverse postorder until stable."""
    order, seen, work = [], {root}, [(root, iter(succ[root]))]  # postorder
    while work:
        v, it = work[-1]
        for w in it:
            if w not in seen:
                seen.add(w)
                work.append((w, iter(succ[w])))
                break
        else:
            order.append(work.pop()[0])
    num = {v: i for i, v in enumerate(order)}
    idom = {root: root}
    changed = True
    while changed:
        changed = False
        for v in reversed(order[:-1]):
            # the processed predecessors, which include v's DFS parent
            new, *rest = [p for p in pred[v] if p in idom]
            for p in rest:
                while p != new:  # meet the two chains: lower one walks up
                    while num[p] < num[new]:
                        p = idom[p]
                    while num[new] < num[p]:
                        new = idom[new]
            if idom.get(v) != new:
                idom[v] = new
                changed = True
    del idom[root]
    return idom


def cycles(succ: dict, pred: dict, comp: dict, k: int) -> Iterator[tuple]:
    """The elementary cycles of k nodes, lazily and in sorted order, each
    as the tuple of its nodes from its smallest, s. comp numbers the
    strongly connected components. A cycle from s stays among the nodes of
    s's component above s, and the search walks only those that can still
    get back to s in the steps left."""
    nxt = {v: sorted(ws) for v, ws in succ.items()}
    for s in sorted(nxt):
        back = {s: 0}  # fewest steps back to s, up to k - 1
        frontier = {s}
        for d in range(1, k):
            frontier = {v for w in frontier for v in pred[w]
                        if v > s and comp[v] == comp[s] and v not in back}
            back.update(dict.fromkeys(frontier, d))
        path = [s]
        its = [iter(nxt[s])]
        while its:
            for w in its[-1]:
                if w == s:
                    if len(path) == k:
                        yield tuple(path)
                elif len(path) + back.get(w, k) <= k and w not in path:
                    path.append(w)
                    its.append(iter(nxt[w]))
                    break
            else:
                its.pop()
                path.pop()
