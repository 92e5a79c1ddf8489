"""Zero forcing, chain decompositions, parallel-path drawings, and maximum
nullity bounds for graphs of maximum degree three."""

from .graphs import (
    Graph,
    canonical_form,
    encode_graph6,
    enumerate_connected_subcubic,
    is_induced_path,
    parse_graph6,
)
from .forcing import ForcingRun, closure, forcing_number, is_forcing_set, total_forcing_number
from .chains import (
    ChainSet,
    bad_vertices,
    chains_for,
    check_order_lemmas,
    eliminate_bad,
    eliminate_unfavorite,
    extract_chains,
    unfavorite_vertices,
)
from .drawing import (
    StandardDrawing,
    build_parallel_drawing,
    build_standard_drawing,
    leftmost_set,
    realize,
    render,
    search_drawing,
    verify_drawing,
)
from .nullity import (
    Classification,
    NullityCertificate,
    classify,
    is_figure8,
    maximize_nullity,
)
from .harness import SuiteReport, run_suite

__version__ = "0.1.0"
