"""Whiskered graph constructions, vertex decomposability, facet posets,
and graded Betti numbers of cover ideals."""

from .complexes import (ComplexError, SimplicialComplex, independence_complex,
                        simplex_on)
from .decomposability import (VDCertificate, is_scm_via_dual, is_shellable,
                              is_unmixed, is_vertex_decomposable,
                              shedding_vertices, verify_certificate)
from .fields import GF2, QQ, FieldSpec
from .graph import (Graph, GraphError, ResourceLimit, complete_graph,
                    cycle_graph, edgeless_graph, is_vd_graph, path_graph)
from .ideals import (BettiTable, IdealError, MonomialIdeal, betti_closed_pi,
                     betti_join, betti_oracle, betti_recursive_cover,
                     has_linear_resolution, ideal_of)
from .io import (ParseError, format_complex, format_graph, format_partition,
                 graph_to_dot, parse_complex, parse_graph, parse_partition)
from .poset import FacetPoset, PosetError, count_facets_pi
from .whisker import (KINDS, PartitionSpec, WhiskerError, WhiskeredGraph,
                      build_whiskered, decompose_delete, decompose_link,
                      default_spec, derive_kind, trivial_spec,
                      validate_partitions)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
