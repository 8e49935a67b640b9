"""Separability certificates and entanglement scans for 1D thermal chains."""

from .errors import (
    BudgetError,
    ChainsepError,
    ConfigError,
    FloatRangeError,
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
)
from .model import (
    Interaction,
    ModelSpec,
    RegionsABC,
    builtin_models,
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
)
from .expansionals import (
    ExpansionalReport,
    LemmaReport,
    check_lemmas,
    contraction_check,
    covering_bound,
    estimate_uniform_bound,
    expansional,
    factorial_decay_bound,
    marginal_floor_ok,
    tail_norm_bound,
)
from .separability import (
    CoreDecomposition,
    DecompositionReport,
    VERDICT_SEPARABLE,
    VERDICT_UNDETERMINED,
    ball_radius,
    certify_marginal,
    decompose_truncated_marginal,
    negativity,
    tail_term,
)

__version__ = "0.1.0"
