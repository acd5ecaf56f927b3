"""Byzantine-resistant multi-server private information retrieval toolkit.

Retrieval works over a two-level field tower F_q < F_{q^s}: queries are
evaluations of a random low-degree curve, each server answers with either
a full extension-field symbol or a single base-field symbol obtained
through the trace map, and the client error-corrects the answer word
before reconstructing the file.  A simulated server harness, adversary
models, an exact privacy auditor, and capacity reporting sit on top.
"""

from .gf import (
    DualBasisPair,
    ExtField,
    FieldMismatchError,
    FieldTower,
    PrimeField,
    SingularBasisError,
    dual_basis,
    find_irreducibles,
    minimal_poly,
)
from .harness import (
    AdversaryModel,
    ServerNode,
    SessionReport,
    byzantine_sweep,
    privacy_audit,
    run_session,
    scheme_comparison,
)
from .kernels import backend as kernel_backend
from .pir import (
    AnswerSet,
    ByzantineBudgetExceeded,
    Database,
    InvalidParameters,
    SchemeParams,
    capacity,
    gen_queries,
    retrieve_from_k,
    retrieve_from_r,
    retrieve_many,
    server_answer,
    setup,
    validate_optimality,
)
from .rscodes import (
    DecodedBatch,
    DecodeFailure,
    DecodeResult,
    EnumerationTooLarge,
    GrsCode,
    dual_multipliers,
    grs_decode,
    grs_encode,
    oracle_decode,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryModel",
    "AnswerSet",
    "ByzantineBudgetExceeded",
    "Database",
    "DecodedBatch",
    "DecodeFailure",
    "DecodeResult",
    "DualBasisPair",
    "EnumerationTooLarge",
    "ExtField",
    "FieldMismatchError",
    "FieldTower",
    "GrsCode",
    "InvalidParameters",
    "PrimeField",
    "SchemeParams",
    "ServerNode",
    "SessionReport",
    "SingularBasisError",
    "byzantine_sweep",
    "capacity",
    "dual_basis",
    "dual_multipliers",
    "find_irreducibles",
    "gen_queries",
    "grs_decode",
    "grs_encode",
    "kernel_backend",
    "minimal_poly",
    "oracle_decode",
    "privacy_audit",
    "retrieve_from_k",
    "retrieve_from_r",
    "retrieve_many",
    "run_session",
    "scheme_comparison",
    "server_answer",
    "setup",
    "validate_optimality",
]
