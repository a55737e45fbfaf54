"""Shannon and Renyi (effective) transfer entropy between time series.

The package covers the full pipeline: CSV ingestion and alignment,
block coarse-graining and amplitude binning, sliding-window word
counting, Shannon and order-q transfer entropy, surrogate-corrected
effective values, pairwise flow matrices and parameter sweeps, plus
coupled synthetic processes whose exact transfer entropy is known in
closed form for verification.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    MalformedHeaderError,
    NonAscendingTimestampsError,
    ValidationError,
)
from .infocore import (
    DiscreteDistribution,
    JointDistribution,
    conditional_entropy,
    entropy,
    entropy_gain,
    escort,
)
from .ingest import RawSeries, align_many, load_csv
from .report import (
    FiniteSampleWarning,
    FlowMatrix,
    NetFlowMatrix,
    SweepTable,
    emit,
    m_sweep,
    net_flow,
    pairwise_matrix,
    parse_matrix_csv,
    q_sweep,
    render,
)
from .surrogate import (
    EffectiveResult,
    SurrogateSpec,
    effective_transfer_entropy,
    make_surrogate,
)
from .symbolize import (
    BinningSpec,
    SymbolSeries,
    block_coarse_grain,
    fit_bins,
    log_returns,
    prepare_series,
    symbolize,
)
from .synth import (
    CoupledMarkovSpec,
    copy_spec,
    exact_transfer_entropy,
    generate,
    independent_spec,
    noisy_copy_spec,
    stationary_joint,
)
from .transfer import (
    HistorySpec,
    WordDistribution,
    count_words,
    renyi_transfer_entropy,
)

__all__ = [
    "BinningSpec",
    "ConvergenceError",
    "CoupledMarkovSpec",
    "DiscreteDistribution",
    "EffectiveResult",
    "FiniteSampleWarning",
    "FlowMatrix",
    "HistorySpec",
    "JointDistribution",
    "MalformedHeaderError",
    "NetFlowMatrix",
    "NonAscendingTimestampsError",
    "RawSeries",
    "SurrogateSpec",
    "SweepTable",
    "SymbolSeries",
    "ValidationError",
    "WordDistribution",
    "align_many",
    "block_coarse_grain",
    "conditional_entropy",
    "copy_spec",
    "count_words",
    "effective_transfer_entropy",
    "emit",
    "entropy",
    "entropy_gain",
    "escort",
    "exact_transfer_entropy",
    "fit_bins",
    "generate",
    "independent_spec",
    "load_csv",
    "log_returns",
    "m_sweep",
    "make_surrogate",
    "net_flow",
    "noisy_copy_spec",
    "pairwise_matrix",
    "parse_matrix_csv",
    "prepare_series",
    "q_sweep",
    "render",
    "renyi_transfer_entropy",
    "stationary_joint",
    "symbolize",
]
