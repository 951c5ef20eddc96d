"""Colour-preserving bijections that carry one set of labelled edges onto
another.

Equality of automata up to a state bijection is this question: states
are nodes, and each transition is an edge labelled by its entry and exit
positions.  States have no port order to follow, so their bijection must
be searched for; graph isomorphism needs no search, since ordered ports
fix a component from one vertex (``graph.isomorphic``).

The input colours are refined on the disjoint union
of the two sides to the coarsest equitable partition: one in which any
two nodes of a cell have the same multiset of (direction, label) edges
into every cell.  Refinement pops splitter cells from a queue, visits
only the nodes with an edge into the splitter, and re-queues every piece
of a split cell but the largest (Hopcroft 1971; Paige & Tarjan, "Three
partition refinement algorithms", 1987), as McKay & Piperno refine in
"Practical graph isomorphism II" (2014).  Each node lies in O(log n)
splitters, so refining m edges sets O(m log n) marks.  Then the two
sides must have the same connected components, each counted by its size
and the histogram of its refined colours: refinement cannot see
component sizes, and without this check the search would try every
branch of, say, an automaton whose states form four 2-cycles under one
entry and exit against one whose states form two 2-cycles and a 4-cycle.

The search individualises and refines, as nauty and bliss do (McKay &
Piperno 2014; Junttila & Kaski 2007): it maps one node of the smallest
cell with more than one node a side to each node of the other side in
that cell in turn, gives the pair a cell of its own, and refines again
from that cell alone.  An unbalanced cell rejects the choice.  It stops
when every cell pairs one node of each side; that partition is
equitable, so the pairs carry the edges onto each other and need no
check of their own.
"""

from __future__ import annotations

from collections import Counter
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
    both = edges[0] | edges[1]
    out: list[list] = [[] for _ in nodes]
    inc: list[list] = [[] for _ in nodes]
    for u, lab, v in both:
        out[u].append((lab, v))
        inc[v].append((lab, u))

    # A stack frame holds an equitable partition, the side-1 node v it
    # individualises and the side-2 nodes of v's cell left to try as v's
    # image; cells list their side-1 nodes first.
    palette: dict = {}
    color = refine(n1, [palette.setdefault(c, len(palette))
                        for c in (*colors1.values(), *colors2.values())],
                   out, inc, range(len(palette)))
    if color is not None and not same_components(n1, color, both):
        return None
    stack = []
    while True:
        if color is not None:
            cells: dict[int, list[int]] = {}
            for v, c in enumerate(color):
                cells.setdefault(c, []).append(v)
            target = min((cell for cell in cells.values() if len(cell) > 2),
                         key=len, default=None)
            if target is None:
                # Every cell pairs one node of each side, and the partition
                # is equitable, so the pairs carry edges1 onto edges2.
                return {nodes[v]: nodes[w] for v, w in cells.values()}
            stack.append((color, target[0], iter(target[len(target) // 2:])))
        while stack and (w := next(stack[-1][2], None)) is None:
            stack.pop()
        if not stack:
            return None
        parent, v, _ = stack[-1]
        # The fresh cell {v, w} splits one cell of an equitable partition,
        # so it is the only splitter the rest needs.
        fresh = max(parent) + 1
        color = list(parent)
        color[v] = color[w] = fresh
        color = refine(n1, color, out, inc, [fresh])


def same_components(n1: int, color: list[int], edges: Iterable[tuple[int, int, int]]) -> bool:
    """Whether the two sides have the same multiset of connected
    components, each taken as its size and the histogram of its nodes'
    colours ``color``.  A bijection that carries the edges across maps
    components onto components, and refined colours onto themselves, so
    sides that differ here have none; colour refinement alone cannot
    count component sizes: states that form four 2-cycles under one
    transition label and states that form two 2-cycles and a 4-cycle all
    keep one colour.  Components are found by union-find over
    ``edges``, which join nodes of one side each."""
    parent = list(range(len(color)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, _, v in edges:
        parent[find(u)] = find(v)
    members: dict[int, list[int]] = {}
    for v, c in enumerate(color):
        members.setdefault(find(v), []).append(c)
    census: list[Counter] = [Counter(), Counter()]
    for root, colours in members.items():
        census[root >= n1][tuple(sorted(colours))] += 1
    return census[0] == census[1]


def refine(n1: int, color: list[int], out: list[list], inc: list[list],
           splitters: Iterable[int]) -> list[int] | None:
    """The coarsest equitable partition that refines the colours
    ``color`` (integers from 0) of the nodes ``0 .. len(color) - 1``, as
    one cell number per node: any two nodes of a cell have the same
    multiset of (direction, label) edges into every cell.  Only the cells
    ``splitters`` names are queued, so every other cell must already split
    no cell.  ``out[u]`` and ``inc[u]`` list the ``(label, node)`` ends of
    the edges leaving and entering ``u``, labels integers.  The nodes below
    ``n1`` are one side, the others the other side; ``None`` when a cell
    holds unequal numbers of nodes from the two sides."""
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
    queue = list(splitters)
    queued = [False] * len(cells)
    for s in queue:
        queued[s] = True
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
