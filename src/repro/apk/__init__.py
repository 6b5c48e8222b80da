"""Synthetic APK substrate.

The paper evaluates on 1000 real Google-Play APKs whose only published
characteristics are Table I's averages (6217 CFG nodes, 268 methods,
116 variables, max worklist length 74) and the category diversity of
the sample.  Real APKs (and an Androguard-style frontend) are not
available offline, so this package provides the closest synthetic
equivalent that exercises the same code paths:

* :mod:`repro.apk.manifest` -- the AndroidManifest model.
* :mod:`repro.apk.dex` -- a binary ``.gdx`` container (our stand-in
  for classes.dex) with pack/unpack round-trip.
* :mod:`repro.apk.generator` -- category-aware random app generation
  whose size distributions are fit to Table I.
* :mod:`repro.apk.corpus` -- the 1000-app evaluation corpus with
  deterministic seeding and Table I statistics.
* :mod:`repro.apk.loader` -- bytes -> IR loading (the frontend path).
"""

from repro.apk.corpus import AppCorpus, CorpusStats
from repro.apk.dex import pack_app, unpack_app
from repro.apk.generator import AppGenerator, GeneratorProfile, generate_app
from repro.apk.loader import load_gdx, save_gdx
from repro.apk.manifest import AndroidManifest, manifest_of

__all__ = [
    "AndroidManifest",
    "AppCorpus",
    "AppGenerator",
    "CorpusStats",
    "GeneratorProfile",
    "generate_app",
    "load_gdx",
    "manifest_of",
    "pack_app",
    "save_gdx",
    "unpack_app",
]
