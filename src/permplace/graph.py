"""The package's two graph walks, on explicit stacks."""

from __future__ import annotations


def closure(roots, succ) -> set:
    """The nodes reachable from ``roots``, the roots included, as a new set.
    ``succ(node)`` gives a node's successors; it is called once per node
    reached."""
    seen = set(roots)
    todo = list(seen)
    while todo:
        for w in succ(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def components(roots, succ) -> list:
    """Strongly connected components, as lists, of the graph ``succ`` (node
    -> successor nodes; a node missing from it has none) reachable from
    ``roots``, by Tarjan's algorithm on an explicit stack. A component comes
    after every component it reaches."""
    # the roots are the successors of a virtual node None, below every index
    index, low, stack, found = {}, {None: -1}, [], []
    work = [(None, iter(roots))]
    while work:
        v, it = work[-1]
        for w in it:
            if w not in index:
                index[w] = low[w] = len(index)
                stack.append(w)
                work.append((w, iter(succ.get(w, ()))))
                break
            if w in low:  # still on the stack
                low[v] = min(low[v], index[w])
        else:
            work.pop()
            if v is None:
                break
            u = work[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = [stack.pop()]
                while comp[-1] != v:
                    comp.append(stack.pop())
                for w in comp:
                    del low[w]
                found.append(comp)
    return found
