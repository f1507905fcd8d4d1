"""Synthetic check-in fixtures with planted community structure.

Users belong to disjoint communities; inside a community the venue pool is
partitioned into favorite sets of roughly favorites_per_user venues, and each
user draws check-ins from one such set. Users sharing a favorite set reinforce
the same co-visit pattern, so a recommender that recovers the structure can
place a user's future venues near the top of its ranking. A coverage pass
guarantees every venue is visited at least once, which makes vocabulary sizes
exactly predictable from the generator parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CheckinRecord
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


@dataclass(frozen=True)
class FixtureSummary:
    """Counts the generator actually emitted; used as test oracles."""

    user_count: int
    venue_count: int
    train_count: int
    test_count: int
    boundary: int


def _user_id(community: int, index: int) -> str:
    return f"c{community}u{index}"


def _venue_id(community: int, index: int) -> str:
    return f"c{community}v{index}"


def generate_fixture(spec: FixtureSpec) -> tuple[list[CheckinRecord], FixtureSummary]:
    """Generate a seeded synthetic check-in log.

    Train check-ins get timestamps in January 2011, test check-ins in
    February 2011, so splitting at FEB_2011 (the default boundary)
    reproduces the generator's own train/test counts exactly.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    venues_by_community = [
        [_venue_id(c, j) for j in range(spec.venues_per_community)]
        for c in range(spec.communities)
    ]
    records: list[CheckinRecord] = []

    for community in range(spec.communities):
        own_venues = venues_by_community[community]
        foreign = [
            venue
            for other, group in enumerate(venues_by_community)
            if other != community
            for venue in group
        ]
        # Partition the community's venues into favorite sets; users mapped to
        # the same set share a co-visit pattern the embedding can recover.
        n_sets = max(1, len(own_venues) // min(spec.favorites_per_user, len(own_venues)))
        shuffled = [own_venues[j] for j in rng.permutation(len(own_venues))]
        favorite_sets = [
            [str(v) for v in part] for part in np.array_split(shuffled, n_sets)
        ]
        favorites = [
            favorite_sets[u % n_sets] for u in range(spec.users_per_community)
        ]
        # Coverage pass: round-robin every community venue onto some user so
        # no venue stays unvisited.
        forced: list[list[str]] = [[] for _ in range(spec.users_per_community)]
        for j, venue in enumerate(own_venues):
            forced[j % spec.users_per_community].append(venue)

        for u in range(spec.users_per_community):
            user = _user_id(community, u)
            train_venues = list(forced[u])
            while len(train_venues) < spec.train_checkins_per_user:
                train_venues.append(
                    _draw_venue(rng, favorites[u], foreign, spec.noise_rate)
                )
            test_venues = [
                _draw_venue(rng, favorites[u], foreign, spec.noise_rate)
                for _ in range(spec.test_checkins_per_user)
            ]
            train_times = rng.integers(JAN_2011, FEB_2011, len(train_venues))
            test_times = rng.integers(FEB_2011, MAR_2011, len(test_venues))
            records.extend(
                CheckinRecord(user, venue, int(ts))
                for venue, ts in zip(train_venues, train_times)
            )
            records.extend(
                CheckinRecord(user, venue, int(ts))
                for venue, ts in zip(test_venues, test_times)
            )

    user_count = spec.communities * spec.users_per_community
    summary = FixtureSummary(
        user_count=user_count,
        venue_count=spec.communities * spec.venues_per_community,
        train_count=user_count * spec.train_checkins_per_user,
        test_count=user_count * spec.test_checkins_per_user,
        boundary=FEB_2011,
    )
    return records, summary


def _draw_venue(
    rng: np.random.Generator,
    favorites: list[str],
    foreign: list[str],
    noise_rate: float,
) -> str:
    if foreign and noise_rate > 0.0 and rng.random() < noise_rate:
        return foreign[int(rng.integers(len(foreign)))]
    return favorites[int(rng.integers(len(favorites)))]
