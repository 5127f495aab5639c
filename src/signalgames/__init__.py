"""Signaling-game protocol analysis on finite input spaces.

The package evaluates communication protocols (total input-to-message maps)
under five game losses, provides the closed-form objectives those losses
reduce to under synchronized receivers, decides the semantic-consistency,
spatial-meaningfulness, simplicity and non-degeneracy definitions, searches
for optimal protocols, computes the standard protocol metrics, and ships
bit-exact adversarial counterexample constructions. A CLI front end
(``signalgames``) exposes analysis, verification and optimization runs with
deterministic seeded reports.
"""

from .core import (
    GAME_KINDS,
    GameSpec,
    InputSpace,
    LabelMap,
    MessageSpace,
    Protocol,
    conditional_stats,
    message_probabilities,
)
from .errors import (
    BudgetExceededError,
    EmptyClassError,
    MetricUndefinedError,
    ParseError,
    SignalGamesError,
)
from .games import (
    ClassificationReceiver,
    ConstantDiscriminationReceiver,
    DiscriminationReceiver,
    GlobalReceiver,
    LossReport,
    ReconstructionReceiver,
    ScoreDiscriminationReceiver,
    SynchronizedDiscriminationReceiver,
    TabularDiscriminationReceiver,
    eval_classification,
    eval_discrimination,
    eval_global,
    eval_reconstruction,
    eval_supervised,
    synchronized_receiver,
    synchronized_sender,
)
from .objectives import (
    binomial_log_moment,
    classification_objective,
    convexity_check,
    disc_objective,
    disc_objective_simplified,
    entropy,
    global_objective,
    mutual_information,
    reco_objective,
    supervised_objective,
)
from .consistency import (
    non_degeneracy,
    optimal_constant_receiver,
    receiver_simplicity,
    semantic_consistency,
    simplicity_constant,
    spatial_meaningfulness,
)
from .optimize import (
    balanced_partition,
    exhaustive_search,
    kmeans_alternation,
)
from .metrics import (
    cluster_variance,
    disentanglement,
    discrimination_accuracy,
    max_purity,
    message_variance,
    purity,
    random_baseline,
    topsim,
    unique_messages,
)
from .counterexamples import (
    build_anticonsistent_optimal,
    build_mirror_pairs_instance,
    verify_antipodal_split,
    verify_mirror_pairs,
)

__version__ = "0.1.0"
