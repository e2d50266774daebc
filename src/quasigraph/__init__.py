"""quasigraph: quasi k-connectivity, contractible edges, fragments, and a
batch verification harness for graph corpora."""

from .core import (
    Contraction,
    Graph,
    contract_edge,
)
from .connectivity import (
    Cut,
    QuasiConnectivity,
    enumerate_cuts,
    is_quasi_k_connected,
    make_cut,
    minimum_cuts,
    vertex_connectivity,
)
from .fragments import (
    Fragment,
    fragments_of_cut,
    nontrivial_atom,
    quasi_fragments_wrt_edge,
)
from .contractibility import (
    ContractionReport,
    compute_E0,
    contraction_reports,
    is_contraction_critical,
    is_k_contractible,
    is_quasi_k_contractible,
)
from .harness import (
    CLAIMS,
    VerificationReport,
    check_degree_sum_condition,
    check_min_degree_condition,
    run_campaign,
    verify_claim,
)
from .generators import CorpusSpec, generate_corpus

__version__ = "0.1.0"
