"""Separability certificates and entanglement scans for 1D thermal chains."""

from .errors import (
    BudgetError,
    ChainsepError,
    ConfigError,
    EmptyIntersectionError,
    GeometryError,
)
from .linalg import (
    LocalOperator,
    embed,
    herm_exp,
    herm_fn,
    identity,
    is_psd,
    kron,
    min_eig,
    op_norm,
    partial_trace,
    partial_transpose,
    trace_norm,
    zero,
)
from .model import (
    Interaction,
    ModelSpec,
    RegionsABC,
    builtin_models,
    hamiltonian,
    k_neighborhood,
)
from .gibbs import (
    Chain,
    GibbsEnsemble,
    check_partition_ratios,
    entropy,
    factorization_error,
    gibbs,
    marginal,
    mutual_information,
    mutual_information_of,
    relative_entropy,
)
from .expansionals import (
    ContractionReport,
    ExpansionalReport,
    LemmaReport,
    check_lemmas,
    contraction_check,
    covering_bound,
    difference_decay,
    estimate_uniform_bound,
    expansional,
    factorial_decay_bound,
    marginal_inverse_norm,
    tail_norm_bound,
    truncated_expansional,
)
from .separability import (
    Certificate,
    CoreDecomposition,
    DecompositionReport,
    VERDICT_ENTANGLED,
    VERDICT_SEPARABLE,
    VERDICT_UNDETERMINED,
    ball_radius,
    certify_marginal,
    decompose_truncated_marginal,
    exact_sep_test,
    negativity,
    tail_term,
    telescope_verify,
)

__version__ = "0.1.0"
