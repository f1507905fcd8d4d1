"""Venue recommendation from check-in sequences via token embeddings.

Check-in logs become sentences ([user, venue, venue, ...]) that train
skip-gram or CBOW embeddings with negative sampling; three vector-space
strategies (KNI, NN, KIU) produce top-k venue recommendations, benchmarked
against user CF, Random, truncated SVD and CCD++ baselines with Precision@k,
NDCG, HitRate and Prediction Coverage.
"""

from .baselines import (
    FactorModel,
    InteractionMatrix,
    build_interaction_matrix,
    ccdpp_factorize,
    recommend_cf,
    recommend_latent_neighbors,
    recommend_random,
    svd_factorize,
)
from .corpus import (
    CheckinRecord,
    Dataset,
    FieldLayout,
    SentenceCorpus,
    Vocabulary,
    build_interactions,
    build_sentences,
    build_vocabulary,
    parse_checkins,
    read_checkins,
    split_train_test,
    write_checkins,
)
from .embedding import (
    CBOW,
    SKIP_GRAM,
    EmbeddingModel,
    EpochStats,
    NegativeSamplingTable,
    TrainingConfig,
    get_vector,
    init_model,
    negative_sampling_gradient,
    top_k_similar,
    train,
)
from .errors import (
    ConfigError,
    EmitError,
    EmptyVocabularyError,
    EvaluationError,
    FormatError,
    SimilarityError,
    TokenNotFoundError,
    TrainingError,
)
from .fixtures import FixtureSpec, FixtureSummary, generate_fixture
from .harness import ExperimentConfig, SweepSpec, emit_plot_data, run_experiment, run_sweep
from .metrics import (
    MetricsReport,
    UserResult,
    aggregate,
    build_ground_truth,
    hit_rate,
    ndcg_at_k,
    precision_at_k,
    prediction_coverage,
    score_user,
)
from .modelio import (
    export_text_vectors,
    load_embedding_model,
    save_embedding_model,
)
from .recommend import (
    RecommendationList,
    RecommendationRequest,
    recommend_kiu,
    recommend_kni,
    recommend_nn,
)

__version__ = "0.1.0"
