"""Seeded benchmark inputs: app sets and version bumps.

Everything a workload feeds the program comes from here, as a pure
function of ``(seed, count)``.  The program only ever sees the
``.gdx`` files these sets are packed into.

App sets are drawn by stratified sampling over a fixed pool of
generator seeds (see ``perfbench/make_strata.py``): the pool is sorted
by a deterministic cost key, cut into ``count`` equal-count strata, and
one app is drawn from each.  Every seed therefore gets the same cost
shape -- small apps, mid-size apps and the heavy tail in the same
proportions -- from different apps, so the seed moves which apps run
but not how much work a run holds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

from vetbench.env import BENCH_DIR


#: Generator scale every workload draws at: the Table-I profile scaled
#: to 0.05, the same for every workload, so ingest's apps have the same
#: cost shape as the served ones and ingest is the serial baseline the
#: serve workloads are read against.
SCALE = 0.05
#: The pool: generator seeds ``BASE_SEED .. BASE_SEED + POOL_SIZE - 1``.
BASE_SEED = 32_000_000
POOL_SIZE = 1600
#: Workloads draw from the lightest 99.5% of the pool: the heavy tail
#: stays (the top stratum runs ~25x the median app), but the eight most
#: extreme apps -- up to 2x the next heaviest -- would make whichever
#: run draws one an outlier in throughput and peak RSS.
POOL_SHARE = 0.995
#: Generator seed of the untimed warm-up app (outside the pool).
WARMUP_SEED = BASE_SEED - 1
STRATA_FILE = BENCH_DIR / "strata.json"


@dataclass(frozen=True)
class AppSpec:
    """One drawn app: its position in the run and its generator seed."""

    index: int
    seed: int
    #: Cost key the app was stratified by (worklist visits).
    key: int


def strata_keys() -> List[int]:
    """Committed cost key of every pool app (``-1``: left out)."""
    table = json.loads(STRATA_FILE.read_text())
    if table["base_seed"] != BASE_SEED or len(table["keys"]) != POOL_SIZE:
        raise ValueError(
            "strata.json does not match the pool; rebuild it with "
            "perfbench/make_strata.py"
        )
    return table["keys"]


def draw_apps(seed: int, count: int) -> List[AppSpec]:
    """``count`` apps, one per cost stratum, in a seeded random order,
    from the lightest :data:`POOL_SHARE` of the pool."""
    eligible = sorted(
        (key, offset) for offset, key in enumerate(strata_keys()) if key >= 0
    )
    eligible = eligible[: round(len(eligible) * POOL_SHARE)]
    if count > len(eligible):
        raise ValueError(f"the pool holds {len(eligible)} eligible apps")
    rng = random.Random(f"apps:{seed}")
    drawn: List[Tuple[int, int]] = []
    for stratum in range(count):
        low = stratum * len(eligible) // count
        high = max(low + 1, (stratum + 1) * len(eligible) // count)
        drawn.append(eligible[rng.randrange(low, high)])
    return [
        AppSpec(index=index, seed=BASE_SEED + drawn[rank][1], key=drawn[rank][0])
        for index, rank in enumerate(_balanced_order(count, rng))
    ]


def _balanced_order(count: int, rng: random.Random, groups: int = 10) -> List[int]:
    """A seeded order of cost ranks ``0..count-1`` in which every run of
    ``groups`` consecutive apps holds one app from each cost decile.

    Order is what a backlog sees: a random shuffle can put most of the
    heavy tail in the first half of a burst, and then the seed moves the
    latency percentiles.
    """
    members = [
        list(range(g * count // groups, (g + 1) * count // groups))
        for g in range(groups)
    ]
    for member in members:
        rng.shuffle(member)
    order: List[int] = []
    while any(members):
        live = [member for member in members if member]
        rng.shuffle(live)
        order.extend(member.pop() for member in live)
    return order


def bump_plan(
    specs: Sequence[AppSpec], method_counts: Sequence[int], seed: int, rounds: int
) -> List[List[int]]:
    """Methods each app's version bumps touch: ``plan[round][app]``.

    Three in four bumps touch 1-3 methods and one in four touches a
    quarter of the app's methods.  The split is exact, not drawn per
    bump: apps are grouped by cost key into runs of four, and within a
    group the four sizes (large, 1, 2, 3) rotate over the rounds from a
    seeded start -- so every round holds the same mix, and over four
    rounds every app gets each size once, heavy apps included.
    """
    rng = random.Random(f"bumps:{seed}")
    order = sorted(range(len(specs)), key=lambda i: (specs[i].key, specs[i].seed))
    plan = [[0] * len(specs) for _ in range(rounds)]
    for start in range(0, len(order), 4):
        group = order[start:start + 4]
        sizes = ["large", 1, 2, 3]
        rng.shuffle(sizes)
        for position, index in enumerate(group):
            for bump in range(rounds):
                size = sizes[(position + bump) % 4]
                plan[bump][index] = (
                    max(1, method_counts[index] // 4) if size == "large" else size
                )
    return plan


def write_apps(apps, directory: Path, stem: str = "app") -> List[Path]:
    """Pack apps to ``.gdx`` files; returns their paths."""
    from repro.apk.loader import save_gdx

    directory.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for index, app in enumerate(apps):
        path = directory / f"{stem}-{index:04d}.gdx"
        save_gdx(app, path)
        paths.append(path)
    return paths
