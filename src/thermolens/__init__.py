"""Thermodynamic order and efficiency metrics for contribution histograms.

The package models a population of contributors as a statistical-mechanics
system: each individual holds a positive integer value (an edit count), the
value's logarithm is its energy, and entropy-based metrics quantify how
ordered and how efficient the contribution structure is. On top of the
metric core sit discrete power-law fitting with KS classification, a
constrained maximum-entropy oracle, and an edit-log analysis pipeline.
"""

__version__ = "0.1.0"

from .collection import (
    Collection,
    Distribution,
    EnergyModel,
    from_values,
    merge,
    probabilities,
    read_collection_csv,
    write_collection_csv,
)
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    EmptyCollectionError,
    ThermolensError,
    ZeroEnergyError,
)
from .powerlaw import (
    PowerLawFit,
    classify,
    ks_statistic,
    mle_fit,
    sample,
    theoretical_cdf,
    theoretical_pmf,
    zeta,
)
from .structure import (
    ClassDecomposition,
    StationarityReport,
    TheoryCurve,
    class_decompose,
    efficiency_vs_alpha_curve,
    energy_curve,
    max_entropy_oracle,
    stationarity_report,
    theoretical_class_scaling,
)
from .thermo import (
    ThermoReport,
    average_energy,
    entropy,
    entropy_efficiency,
    entropy_reduction,
    fe_reduction_ratio,
    theoretical_energy,
    theoretical_free_energy,
    thermo_report,
)
from .analytics import (
    CorrelationReport,
    EventTable,
    EvolutionRow,
    PageMetrics,
    PageTimeline,
    correlate_pages,
    evolution_report,
    monthly_collections,
    page_collections,
    page_reports,
    parse_events,
    pearson,
    read_readership_csv,
    saturation_filter,
)

__all__ = [
    "__version__",
    # collection
    "Collection",
    "Distribution",
    "EnergyModel",
    "from_values",
    "merge",
    "probabilities",
    "read_collection_csv",
    "write_collection_csv",
    # errors
    "ThermolensError",
    "DomainError",
    "EmptyCollectionError",
    "ZeroEnergyError",
    "DegenerateError",
    "ConvergenceError",
    # thermo
    "ThermoReport",
    "entropy",
    "entropy_reduction",
    "average_energy",
    "entropy_efficiency",
    "theoretical_energy",
    "theoretical_free_energy",
    "fe_reduction_ratio",
    "thermo_report",
    # powerlaw
    "PowerLawFit",
    "zeta",
    "mle_fit",
    "theoretical_pmf",
    "theoretical_cdf",
    "ks_statistic",
    "classify",
    "sample",
    # structure
    "ClassDecomposition",
    "StationarityReport",
    "TheoryCurve",
    "class_decompose",
    "theoretical_class_scaling",
    "max_entropy_oracle",
    "stationarity_report",
    "efficiency_vs_alpha_curve",
    "energy_curve",
    # analytics
    "EventTable",
    "PageTimeline",
    "PageMetrics",
    "EvolutionRow",
    "CorrelationReport",
    "parse_events",
    "monthly_collections",
    "page_collections",
    "saturation_filter",
    "pearson",
    "evolution_report",
    "page_reports",
    "correlate_pages",
    "read_readership_csv",
]
