"""Colour-preserving bijections that carry one set of labelled edges onto
another.

Graph isomorphism and equality of automata up to a state bijection are
both this question.  The input colours are refined on the disjoint union
of the two sides to the coarsest equitable partition: one in which any
two nodes of a cell have the same multiset of (direction, label) edges
into every cell.  Refinement pops splitter cells from a queue, visits
only the nodes with an edge into the splitter, and re-queues every piece
of a split cell but the largest (Hopcroft 1971; Paige & Tarjan, "Three
partition refinement algorithms", 1987), as McKay & Piperno refine in
"Practical graph isomorphism II" (2014).  Each node lies in O(log n)
splitters, so refining m edges sets O(m log n) marks.  The search then
backtracks over the refined classes, smallest class first.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable

Edge = tuple[Hashable, Hashable, Hashable]  # (source node, label, target node)


def find_bijection(
    colors1: dict, edges1: Iterable[Edge], colors2: dict, edges2: Iterable[Edge]
) -> dict | None:
    """A colour-preserving bijection from the nodes of ``colors1`` onto
    those of ``colors2`` that maps the edge set ``edges1`` exactly onto
    ``edges2``, or ``None`` when there is none."""
    nodes = list(colors1) + list(colors2)
    n1 = len(colors1)
    index = [{v: k for k, v in enumerate(nodes[:n1])},
             {v: n1 + k for k, v in enumerate(nodes[n1:])}]
    labels: dict = {}
    edges = [
        {(index[side][u], labels.setdefault(lab, len(labels)), index[side][v])
         for u, lab, v in es}
        for side, es in ((0, edges1), (1, edges2))
    ]
    if n1 != len(colors2) or len(edges[0]) != len(edges[1]):
        return None
    out: list[list] = [[] for _ in nodes]
    inc: list[list] = [[] for _ in nodes]
    for u, lab, v in edges[0] | edges[1]:
        out[u].append((lab, v))
        inc[v].append((lab, u))

    palette: dict = {}
    color = refine(n1, [palette.setdefault(c, len(palette))
                        for c in (*colors1.values(), *colors2.values())], out, inc)
    if color is None:
        return None

    members: dict[int, list[int]] = {}
    for v in range(n1, len(nodes)):
        members.setdefault(color[v], []).append(v)
    order = sorted(range(n1), key=lambda v: (len(members[color[v]]), v))
    image = [None] * len(nodes)
    taken = [False] * len(nodes)

    def fits(v: int, w: int) -> bool:
        """Mapping ``v`` to ``w`` sends every edge of ``v`` whose other end
        is mapped to an edge."""
        image[v] = w
        ok = all(
            (w, lab, image[x]) in edges[1] for lab, x in out[v] if image[x] is not None
        ) and all(
            (image[u], lab, w) in edges[1] for lab, u in inc[v] if image[u] is not None
        )
        image[v] = None
        return ok

    # Each edge is checked once both ends are mapped, so a complete
    # assignment carries edges1 injectively into edges2; the sets have
    # equal size, so it carries them onto each other.
    tries = [iter(members[color[order[0]]])] if order else []
    k = 0
    while k < n1:
        v = order[k]
        for w in tries[k]:
            if not taken[w] and fits(v, w):
                image[v], taken[w] = w, True
                k += 1
                if k < n1:
                    tries.append(iter(members[color[order[k]]]))
                break
        else:
            tries.pop()
            k -= 1
            if k < 0:
                return None
            taken[image[order[k]]] = False
            image[order[k]] = None
    return {nodes[v]: nodes[image[v]] for v in range(n1)}


def refine(n1: int, color: list[int], out: list[list], inc: list[list]) -> list[int] | None:
    """The coarsest equitable partition that refines the colours
    ``color`` (integers from 0) of the nodes ``0 .. len(color) - 1``, as
    one cell number per node: any two nodes of a cell have the same
    multiset of (direction, label) edges into every cell.  ``out[u]`` and
    ``inc[u]`` list the ``(label, node)`` ends of the edges leaving and
    entering ``u``, labels integers.  The nodes below ``n1`` are one side,
    the others the other side; ``None`` when a cell holds unequal numbers
    of nodes from the two sides."""
    # A bijection maps every cell of the partition onto itself, so every
    # cell must hold as many nodes of one side as of the other.
    def balanced(cell: Collection[int]) -> bool:
        return 2 * sum(v >= n1 for v in cell) == len(cell)

    color = list(color)
    cells: list[set[int]] = [set() for _ in range(max(color, default=-1) + 1)]
    for v, c in enumerate(color):
        cells[c].add(v)
    if not all(map(balanced, cells)):
        return None

    # Each splitter S splits every cell by the multiset of (direction,
    # label) marks its nodes' edges into S give them.  Only nodes with an
    # edge into S are visited.  A piece need not be queued when its cell
    # has already split the others and is not queued again: the marks into
    # it are those into the cell less those into the other pieces.
    queue = list(range(len(cells)))
    queued = [True] * len(cells)
    while queue:
        s = queue.pop()
        queued[s] = False
        marks: dict[int, list[int]] = {}
        for w in cells[s]:
            for lab, u in inc[w]:
                marks.setdefault(u, []).append(2 * lab)
            for lab, v in out[w]:
                marks.setdefault(v, []).append(2 * lab + 1)
        groups: dict[int, dict[tuple, list[int]]] = {}
        for u, m in marks.items():
            m.sort()
            groups.setdefault(color[u], {}).setdefault(tuple(m), []).append(u)
        for c, by_marks in groups.items():
            parts = list(by_marks.values())
            if sum(map(len, parts)) == len(cells[c]):
                if len(parts) == 1:
                    continue
                parts.remove(max(parts, key=len))
            pieces = [c]
            for part in parts:
                if not balanced(part):
                    return None
                new = len(cells)
                cells[c].difference_update(part)
                cells.append(set(part))
                queued.append(False)
                for u in part:
                    color[u] = new
                pieces.append(new)
            if not queued[c]:
                pieces.remove(max(pieces, key=lambda p: len(cells[p])))
            for p in pieces:
                if not queued[p]:
                    queue.append(p)
                    queued[p] = True
    return color
