"""Exact signless-Laplacian characteristic polynomials of the 64
vertex-edge transformations of a regular graph, computed two ways —
closed-form descriptors and brute-force construction — and compared
bit-exactly.
"""

from .exactpoly import (
    BiPoly,
    DegreeMismatch,
    IntPoly,
    NotDivisible,
    charpoly,
    compose_linear,
    det,
    eig_product,
    exact_div,
    reduced_qpoly,
    resultant,
)
from .formulas import (
    FormulaDescriptor,
    descriptor_for,
    descriptor_records,
    formula_charpoly,
    list_cases,
    render_formula,
    render_formula_instantiated,
)
from .graph import (
    DuplicateEdge,
    EmptyEdgeSet,
    Graph,
    GraphError,
    IndexOutOfRange,
    InvalidParameter,
    SelfLoop,
    circulant_graph,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    generate,
    hypercube_graph,
    line_graph,
    parse_edge_list,
    petersen_graph,
    regularity,
)
from .linalg import (
    IntMatrix,
    NotSquare,
    adjacency,
    laplacian,
    signless_laplacian,
)
from .transform import SYMBOLS, XyzCase, xyz_transform
from .verify import (
    CorpusReport,
    PreconditionViolated,
    VerificationResult,
    check_complement_lemma,
    check_eigen_lemma,
    check_line_graph_relation,
    default_corpus,
    report_to_json,
    run_corpus,
    verify_case,
)

__version__ = "0.1.0"
