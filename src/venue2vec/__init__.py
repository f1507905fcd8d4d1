"""Venue recommendation from check-in sequences via token embeddings.

Check-in logs become sentences ([user, venue, venue, ...]) that train
skip-gram or CBOW embeddings with negative sampling; three vector-space
strategies (KNI, NN, KIU) produce top-k venue recommendations, benchmarked
against user CF, Random, truncated SVD and CCD++ baselines with Precision@k,
NDCG, HitRate and Prediction Coverage.

The package root exports what the README's Library example uses; everything
else is imported from its module (venue2vec.corpus, venue2vec.baselines, ...).
"""

from .corpus import Checkins, Dataset
from .fixtures import FixtureSpec
from .harness import ExperimentConfig, fit, recommender, run_experiment

__version__ = "0.1.0"
