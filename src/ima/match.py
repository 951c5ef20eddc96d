"""Colour-preserving bijections that carry one set of labelled edges onto
another.

Graph isomorphism and equality of automata up to a state bijection are
both this question.  Colours are refined on the disjoint union of the two
sides with one shared palette, in the manner of McKay & Piperno,
"Practical graph isomorphism II" (2014); the search then backtracks over
the refined classes, smallest class first.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable

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
    color = [palette.setdefault(c, len(palette))
             for c in (*colors1.values(), *colors2.values())]
    classes = 0
    while True:
        if Counter(color[:n1]) != Counter(color[n1:]):
            return None
        if len(palette) == classes:
            break
        classes = len(palette)
        palette = {}
        color = [
            palette.setdefault(
                (color[v],
                 tuple(sorted((lab, color[w]) for lab, w in out[v])),
                 tuple(sorted((lab, color[u]) for lab, u in inc[v]))),
                len(palette),
            )
            for v in range(len(nodes))
        ]

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
