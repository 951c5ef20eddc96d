"""Correctness references that do not go through the code they check.

They run after the timed loop, so neither their imports nor their work
count toward any timing.
"""

from __future__ import annotations

import networkx as nx

from ima import graph as gr
from ima.graph import InterfaceLabel, SymbolLabel


def _port_labelled(g: gr.SigmaGraph) -> nx.Graph:
    """One node per vertex, labelled by symbol, interface serial or loop
    sort, and one node per port, labelled by index and sort; a graph edge
    joins two port nodes."""
    out = nx.Graph()
    for v, lab in g.vertices.items():
        if isinstance(lab, SymbolLabel):
            key = ("sym", lab.name)
        elif isinstance(lab, InterfaceLabel):
            key = ("in", lab.serial, lab.sort.name)
        else:
            key = ("loop", lab.sort.name)
        out.add_node(("v", v), label=key)
        for i, sort in enumerate(gr.label_ports(lab)):
            out.add_node(("p", v, i), label=("port", i, sort.name))
            out.add_edge(("v", v), ("p", v, i))
    for e in g.edges:
        (a, i), (b, j) = sorted(e)
        out.add_edge(("p", a, i), ("p", b, j))
    return out


def _shape(h: nx.Graph):
    return h.number_of_nodes(), h.number_of_edges(), sorted(map(repr, (d["label"] for _, d in h.nodes(data=True))))


def isomorphic(g1: gr.SigmaGraph, g2: gr.SigmaGraph) -> bool:
    """networkx's VF2++ isomorphism test on the port-labelled graphs, one
    connected component at a time: two graphs are isomorphic exactly when
    their components can be paired off isomorphically, and since
    isomorphism is an equivalence any greedy pairing finds such a pairing
    if one exists.  (Plain VF2, ``nx.is_isomorphic``, takes minutes on
    some of the non-isomorphic tape pairs.)"""
    h1, h2 = _port_labelled(g1), _port_labelled(g2)
    left = [h1.subgraph(c) for c in nx.connected_components(h1)]
    right = [h2.subgraph(c) for c in nx.connected_components(h2)]
    if len(left) != len(right):
        return False
    for c in left:
        shape = _shape(c)
        for k, d in enumerate(right):
            if _shape(d) == shape and nx.vf2pp_is_isomorphic(c, d, node_label="label"):
                del right[k]
                break
        else:
            return False
    return True


def soliton_state(m, packed) -> dict[int, int]:
    """Undo ``dflow.state_packer``: the packed state is a left-nested pair
    of the internal vertices' local states (in vertex order) followed by
    one silent 0 per wire or loop summand.  Switch states are 1-based
    ports; soliton states are 0-based."""
    plan = gr.decomposition_plan(m.graph)
    vids = [vid for vid, _, _ in plan.atoms]
    count = len(vids) + len(plan.wire_sorts) + len(plan.loop_sorts)
    parts = []
    for _ in range(count - 1):
        packed, last = packed
        parts.append(last)
    parts.append(packed)
    parts.reverse()
    return {vid: state - 1 for vid, state in zip(vids, parts)}
