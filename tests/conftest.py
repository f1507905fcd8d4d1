import numpy as np
import pytest

from venue2vec import recommend
from venue2vec.corpus import (
    Checkins,
    build_interactions,
    build_sentences,
    build_vocabulary,
    split_train_test,
)
from venue2vec.embedding import TrainingConfig, init_model, train
from venue2vec.fixtures import FEB_2011, FixtureSpec, generate_fixture


def make_records(visits: dict[str, list[str]], start: int = 1294000000):
    """Check-ins from a {user: [venues...]} table, hourly timestamps."""
    rows = [(user, venue) for user, venues in visits.items() for venue in venues]
    return Checkins.of((user, venue, start + 3600 * i) for i, (user, venue) in enumerate(rows))


def visit_table(records, binary: bool = False):
    """The vocabulary of records and its visit table, as a baseline run
    builds them: (vocab, csr matrix)."""
    vocab = build_vocabulary(records)
    return vocab, build_interactions(records, vocab, binary)


def token_of(vocab, index: int) -> str:
    """A model row's token as the model file spells it: U:user or V:venue."""
    if index < vocab.user_count:
        return "U:" + vocab.users[index]
    return "V:" + vocab.venues[index - vocab.user_count]


def row_of(vocab, token: str) -> int:
    """The model row of a U:user or V:venue token (inverse of token_of)."""
    if token.startswith("U:"):
        return vocab.user_index[token[2:]]
    return vocab.user_count + vocab.venue_index[token[2:]]


def nearest_users(model, user: str, count: int) -> list[tuple[str, float]]:
    """The count users nearest the target in the model's user block, as
    (user, similarity), by the neighbor pick every method uses."""
    vocab = model.vocab
    users = model.input_vectors[: vocab.user_count]
    ((top, sims),) = recommend.nearest_users(
        users, recommend.row_norms(users), [vocab.user_index[user]], count
    )
    return [(vocab.users[i], float(s)) for i, s in zip(top, sims)]


def sentences_of(corpus) -> list[np.ndarray]:
    """A sentence corpus as one token array per sentence, in corpus order."""
    return [corpus.tokens[a:b] for a, b in zip(corpus.starts[:-1], corpus.starts[1:])]


def dense_scores(scores) -> np.ndarray:
    """A score rule's candidate matrix as a dense float64 array, -inf where
    it stores no entry."""
    coo = scores.tocoo()
    dense = np.full(scores.shape, -np.inf)
    dense[coo.row, coo.col] = coo.data
    return dense


TOY_VISITS = {
    # 3 users / 8 venues: Loc0 and Loc2 are always visited together, Loc7 is
    # visited only by u2, and u0 shares venues with u1 but not with u2.
    "u0": ["Loc1", "Loc0", "Loc2", "Loc1"],
    "u1": ["Loc0", "Loc4", "Loc2", "Loc3", "Loc5", "Loc6"],
    "u2": ["Loc7", "Loc3", "Loc5", "Loc7"],
}


@pytest.fixture(scope="session")
def toy_records():
    return make_records(TOY_VISITS)


@pytest.fixture(scope="session")
def toy_model(toy_records):
    vocab = build_vocabulary(toy_records, 1)
    corpus = build_sentences(toy_records, vocab)
    config = TrainingConfig(
        architecture="skip-gram",
        feature_count=2,
        context_count=10,
        epoch_count=200,
        seed=1,
    )
    model, _ = train(init_model(vocab, config), corpus)
    return model


@pytest.fixture(scope="session")
def toy_interactions(toy_records):
    return visit_table(toy_records)


COMMUNITY_SPEC = FixtureSpec(
    seed=7,
    communities=2,
    users_per_community=20,
    venues_per_community=30,
    train_checkins_per_user=15,
    test_checkins_per_user=5,
    noise_rate=0.0,
)


@pytest.fixture(scope="session")
def community_dataset():
    return split_train_test(generate_fixture(COMMUNITY_SPEC), FEB_2011)


@pytest.fixture(scope="session")
def community_model(community_dataset):
    dataset = community_dataset
    vocab = build_vocabulary(dataset.train, 1)
    corpus = build_sentences(dataset.train, vocab)
    config = TrainingConfig(
        architecture="skip-gram",
        feature_count=16,
        context_count=5,
        epoch_count=20,
        seed=3,
    )
    model, trace = train(init_model(vocab, config), corpus)
    return model, trace


@pytest.fixture(scope="session")
def community_interactions(community_dataset):
    return visit_table(community_dataset.train)


def community_of(venue_or_user: str) -> str:
    """Fixture ids look like c<community>u<i> / c<community>v<j>."""
    return venue_or_user.split("u")[0].split("v")[0]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
