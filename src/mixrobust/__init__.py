"""mixrobust: mixture-design experiments for classifier robustness.

Constructs constrained mixture designs over class-label proportions,
composes training/test splits under balanced / consistent / reverse label
shift, collects per-class AUC outcomes from reference classifiers, and
fits and interprets the mixture regression (inference, implied covariate
effects, Shapley attribution, ternary prediction surfaces).
"""

from .design import (ALL_SCENARIOS, DesignConfig, DesignError, RunPlan, RunSpec,
                     TestScenario, build_run_plan, cross_array, expand_plan,
                     scenario_test_proportions, simplex_centroid, write_plan_csv)
from .sampling import (DatasetPool, SampleSplit, SamplingConfig, SamplingError,
                       class_counts, compose_split, compose_test, compose_training,
                       load_pool_csv, write_pool_csv)
from .classifiers import (ClassifierError, ClassifierKind, ClassifierSpec,
                          ExternalRunnerError, SyntheticDataConfig, default_class_means,
                          generate_pool, train_and_score)
from .metrics import (MetricsError, RunOutcome, auc_ovr, log_sd, mean_auc,
                      read_outcomes_csv, write_outcomes_csv)
from .mixmodel import (AnalysisDataset, ImpliedEffect, MixtureModelFit, ModelError,
                       ModelMatrix, TermInference, build_design_matrix,
                       dataset_from_outcomes, factorize, fit_ols, fit_report,
                       implied_covariate_effect, model_matrix, model_row, predict,
                       predict_rows, term_inference, term_labels, two_sided_p,
                       write_fit_report)
from .shapley import (ShapReport, exact_shapley_oracle, shap_importance,
                      shap_per_observation, shap_report, write_shap_json)
from .ternary import (TernaryGrid, barycentric_to_xy, grid_predict, grid_surfaces,
                      render_ternary, simplex_lattice, write_grid_csv, write_ternary_svg)
from .pipeline import (ConfigError, ExperimentConfig, PoolSpec, RunFailure,
                       execute_batch, parse_experiment_config, simulate_plan,
                       with_master_seed)
from .seeding import derive_seed, generator

__version__ = "0.1.0"
