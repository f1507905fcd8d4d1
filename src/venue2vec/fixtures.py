"""Synthetic check-in fixtures with planted community structure.

Users belong to disjoint communities; inside a community the venue pool is
partitioned into favorite sets of roughly favorites_per_user venues, and each
user draws check-ins from one such set. Users sharing a favorite set reinforce
the same co-visit pattern, so a recommender that recovers the structure can
place a user's future venues near the top of its ranking. A coverage pass
guarantees every venue is visited at least once, which makes vocabulary sizes
exactly predictable from the generator parameters.

The generator draws integer indices: venue c * venues_per_community + j is
c{c}v{j} and user c * users_per_community + u is c{c}u{u}, and the log is
built from those code columns (Checkins.numbered), with no id-string rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Checkins
from .errors import ConfigError

JAN_2011 = 1293840000  # 2011-01-01 00:00:00 UTC
FEB_2011 = 1296518400  # 2011-02-01 00:00:00 UTC
MAR_2011 = 1298937600  # 2011-03-01 00:00:00 UTC


@dataclass(frozen=True)
class FixtureSpec:
    """Parameters of the synthetic generator."""

    seed: int = 0
    communities: int = 2
    users_per_community: int = 20
    venues_per_community: int = 50
    train_checkins_per_user: int = 20
    test_checkins_per_user: int = 5
    noise_rate: float = 0.0
    favorites_per_user: int = 8

    def validate(self) -> None:
        if self.communities < 1 or self.users_per_community < 1:
            raise ConfigError("fixture needs at least one community and user")
        if self.venues_per_community < 1:
            raise ConfigError("fixture needs at least one venue per community")
        if self.train_checkins_per_user < 1 or self.test_checkins_per_user < 0:
            raise ConfigError("fixture check-in counts out of range")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError("noise_rate must be in [0, 1]")
        if self.favorites_per_user < 1:
            raise ConfigError("favorites_per_user must be >= 1")
        forced = -(-self.venues_per_community // self.users_per_community)
        if forced > self.train_checkins_per_user:
            raise ConfigError(
                "not enough train check-ins per user to visit every venue: "
                f"need >= {forced}, have {self.train_checkins_per_user}"
            )


def generate_fixture(spec: FixtureSpec) -> Checkins:
    """Generate a seeded synthetic check-in log.

    Train check-ins get timestamps in January 2011, test check-ins in
    February 2011, so splitting at FEB_2011 (the default boundary) gives
    each user train_checkins_per_user train and test_checkins_per_user test
    check-ins.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    users, venues = spec.users_per_community, spec.venues_per_community
    foreign = (spec.communities - 1) * venues  # the other communities' venues
    noisy = foreign > 0 and spec.noise_rate > 0.0
    per_user = spec.train_checkins_per_user + spec.test_checkins_per_user
    visited, times = [], []
    for community in range(spec.communities):
        first = community * venues  # the community's first venue
        own = np.arange(first, first + venues)
        # Partition the community's venues into favorite sets; users mapped to
        # the same set share a co-visit pattern the embedding can recover.
        n_sets = max(1, venues // min(spec.favorites_per_user, venues))
        favorite_sets = np.array_split(own[rng.permutation(venues)], n_sets)
        for u in range(users):
            favorites = favorite_sets[u % n_sets].tolist()
            # Coverage pass: the community's venues round-robin onto its
            # users, so no venue stays unvisited; then the user's draws.
            row = own[u::users].tolist()
            for _ in range(per_user - len(row)):
                if noisy and rng.random() < spec.noise_rate:
                    drawn = int(rng.integers(foreign))  # numbered past the own block
                    row.append(drawn + venues if drawn >= first else drawn)
                else:
                    row.append(favorites[int(rng.integers(len(favorites)))])
            visited += row
            times.append(rng.integers(JAN_2011, FEB_2011, spec.train_checkins_per_user))
            times.append(rng.integers(FEB_2011, MAR_2011, spec.test_checkins_per_user))
    communities = range(spec.communities)
    return Checkins.numbered(
        [f"c{c}u{u}" for c in communities for u in range(users)],
        [f"c{c}v{j}" for c in communities for j in range(venues)],
        np.repeat(np.arange(spec.communities * users), per_user),
        np.array(visited, np.int64),
        np.concatenate(times),
    )
