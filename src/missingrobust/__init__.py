"""Mean and regression estimation when data go missing adversarially.

The package covers the full pipeline: extended-space containers for data
with a missing token, exact samplers for plain-MCAR, realisable, and
arbitrary contamination models, band-distance solvers for minimum-distance
estimation, univariate and multivariate robust estimators, a regression
estimator for contaminated missing responses, and a deterministic Monte
Carlo harness with a CLI.
"""

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    EstimationError,
    ModelError,
    SizeError,
)
from .extended import ExtendedArray, PatternDistribution
from .harness import (
    ESTIMATORS,
    EstimatorContext,
    ResultRecord,
    ScenarioConfig,
    empirical_quantile,
    generate_datasets,
    rate_table,
    read_records_csv,
    run_estimator,
    run_scenario,
    write_records_csv,
    write_table_csv,
)
from .kolmogorov import (
    ChainBounds,
    EmpiricalSummary,
    RealisableSetSpec,
    dist_to_realisable,
    dist_to_realisable_batch,
    dist_to_realisable_sym,
)
from .models import (
    AdversaryLaw,
    Constant,
    ContaminationSpec,
    Custom,
    Gaussian,
    TailsOnly,
    ThresholdAbove,
    ThresholdBelow,
    TwoPoint,
    adversary_two_point,
    all_star_contaminant,
    point_contaminant,
    read_dataset,
    sample_arbitrary,
    sample_mcar,
    sample_realisable,
    sample_regression,
    write_dataset,
)
from .multivariate import (
    as_block_means,
    multivariate_mk,
    quarter_net,
    robust_block_descent,
    robust_descent,
    solve_sdp_approx,
)
from .regression import (
    RegressionFit,
    ks_regression_estimate,
    residual_set,
)
from .rng import Stream, child_seed, splitmix64
from .univariate import (
    UniEstimate,
    average_of_extremes,
    median_of_means,
    mk_estimate,
    observed_mean,
    order_median,
    trimmed_mean,
)

__version__ = "0.1.0"
