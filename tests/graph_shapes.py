"""Graph matrices and shapes computed independently of specmax's matrix
code: adjacency lists read edge by edge, component shapes by networkx."""

import networkx as nx


def adjacency_lists(g) -> list[list[int]]:
    """The integer adjacency matrix of g read one vertex pair at a time with
    `has_edge`, loop diagonal entries 2."""
    return [[2 * (g.loops >> u & 1) if u == v else int(g.has_edge(u, v)) for v in range(g.n)] for u in range(g.n)]


def complement_shapes(g, vertices) -> list[tuple[int, int]]:
    """Sorted (order, size) of the components of the complement of the
    subgraph of g induced on `vertices`, loops ignored."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    comp = nx.complement(h.subgraph(vertices))
    return sorted((len(c), comp.subgraph(c).number_of_edges()) for c in nx.connected_components(comp))
