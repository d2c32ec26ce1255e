"""Graph-shape checks computed by networkx, independently of specmax."""

import networkx as nx


def complement_shapes(g, vertices) -> list[tuple[int, int]]:
    """Sorted (order, size) of the components of the complement of the
    subgraph of g induced on `vertices`, loops ignored."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    comp = nx.complement(h.subgraph(vertices))
    return sorted((len(c), comp.subgraph(c).number_of_edges()) for c in nx.connected_components(comp))
