"""Rebuild ``perfbench/strata.json``: the cost key of every pool app.

Per-app vetting cost is heavy-tailed and only loosely tied to app
size: at scale 0.05 a 6-method app can run 90k worklist visits and
take ten times the median.  Drawing a workload's apps at random would
let the seed, not the program, move its throughput and percentiles.
So each workload draws its apps from a fixed pool of generator seeds,
one app per equal-count stratum of a deterministic cost key -- the
app's worklist node visits (synchronous + merging dynamics) -- and
every seed gets the same cost shape, heavy tail included, from
different apps.

The key only orders the pool; a later program whose visit counts
differ still draws deterministic, well-spread sets.  Apps the strict
lint gate rejects are left out of the pool (key ``-1``).

Run from the checkout root (single process, ~3 minutes)::

    python3 perfbench/make_strata.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from vetbench.env import checkout_root, import_program  # noqa: E402
from vetbench.inputs import BASE_SEED, POOL_SIZE, SCALE, STRATA_FILE  # noqa: E402


def pool_keys() -> list:
    from repro.apk.generator import AppGenerator, GeneratorProfile
    from repro.core.engine import AppWorkload
    from repro.lint import LintError

    generator = AppGenerator(GeneratorProfile(scale=SCALE))
    keys = []
    for offset in range(POOL_SIZE):
        app = generator.generate(BASE_SEED + offset)
        try:
            profile = AppWorkload.build(app, lint_gate=True).profile
        except LintError:
            keys.append(-1)
            continue
        keys.append(profile.visits_sync + profile.visits_mer)
    return keys


def main() -> int:
    import_program(checkout_root())
    table = {
        "scale": SCALE,
        "base_seed": BASE_SEED,
        "key": "visits_sync+visits_mer",
        "keys": pool_keys(),
    }
    STRATA_FILE.write_text(json.dumps(table, sort_keys=True) + "\n")
    print(f"{POOL_SIZE} pool apps keyed into {STRATA_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
