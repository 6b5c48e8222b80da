"""Record reuse in the ``.gdx`` decoder: a table never changes an outcome.

:func:`repro.apk.dex.unpack_app` reuses the decoded ``Method`` of every
record that is byte-identical to the last accepted container's record
for the same signature.  These tests pin the rule down:

* a decode primed by the other version of an app gives exactly the
  outcome of a decode with an empty table -- the same app text, or the
  same exception type and message -- under single-byte corruption;
* back-to-back version decodes share the unchanged methods' objects,
  and only those;
* a rejected container, by the decoder or by app validation, leaves
  the table as it was.
"""

from __future__ import annotations

import random
import sys
import threading
from types import SimpleNamespace

import pytest

from repro import obs
from repro.apk.dex import pack_app, unpack_app
from repro.apk.generator import GeneratorProfile, generate_app, mutate_app
from repro.ir.app import AndroidApp
from repro.ir.component import Component, ComponentKind
from repro.ir.parser import parse_app
from repro.ir.printer import print_app
from repro.obs.export import render_ledger, run_ledger
from tests.test_loader_errors import MINIMAL_SOURCE

PROFILE = GeneratorProfile(scale=0.03)

#: Decoding this container leaves the table empty.
EMPTY = pack_app(AndroidApp(package="com.empty", components=(), methods=()))


def _outcome(blob: bytes, primer: bytes):
    """Decode ``primer`` (to set the table), then ``blob``."""
    unpack_app(primer)
    try:
        return ("app", print_app(unpack_app(blob)))
    except Exception as error:  # noqa: BLE001 - the outcome is the point
        return ("error", type(error), str(error))


def _flip(blob: bytes, offset: int, value: int) -> bytes:
    corrupted = bytearray(blob)
    corrupted[offset] = value
    return bytes(corrupted)


def _version_pair(seed: int = 11):
    """``(old, new, signatures the bump changed)``."""
    old = generate_app(seed, PROFILE)
    new, changed = mutate_app(old, seed=5, count=2)
    assert changed
    return old, new, set(changed)


def _chain(seed: int = 23, versions: int = 4):
    """``[(app, signatures mutated from the previous version)]``."""
    chain = [(generate_app(seed, PROFILE), ())]
    for bump in range(1, versions):
        chain.append(mutate_app(chain[-1][0], seed=bump, count=2))
    return chain


class TestPrimedDecodeEqualsCold:
    def test_every_minimal_byte(self):
        blob = pack_app(parse_app(MINIMAL_SOURCE))
        other = pack_app(mutate_app(unpack_app(blob), seed=0, count=1)[0])
        assert other != blob
        for offset in range(len(blob)):
            corrupted = _flip(blob, offset, blob[offset] ^ 0xFF)
            cold = _outcome(corrupted, EMPTY)
            assert _outcome(corrupted, other) == cold, offset
            assert _outcome(corrupted, blob) == cold, offset

    def test_sampled_version_pair_flips(self):
        old, new, _ = _version_pair()
        rng = random.Random(2026)
        blobs = (pack_app(old), pack_app(new))
        outcomes = set()
        for primer, target in (blobs, blobs[::-1]):
            for _ in range(1000):
                offset = rng.randrange(len(target))
                corrupted = _flip(
                    target, offset, target[offset] ^ rng.randrange(1, 256)
                )
                cold = _outcome(corrupted, EMPTY)
                assert _outcome(corrupted, primer) == cold, offset
                outcomes.add(cold[0])
        assert outcomes == {"app", "error"}


class TestVersionChain:
    @pytest.mark.parametrize("order", ["oldest-first", "newest-first"])
    def test_back_to_back_equals_cold_and_shares_unchanged(self, order):
        chain = _chain()
        blobs = [pack_app(app) for app, _ in chain]
        cold = []
        for blob in blobs:
            unpack_app(EMPTY)
            cold.append(print_app(unpack_app(blob)))
        steps = list(range(len(chain)))
        if order == "newest-first":
            steps.reverse()
        unpack_app(EMPTY)
        previous = None
        for step in steps:
            decoded = unpack_app(blobs[step])
            assert print_app(decoded) == cold[step] == print_app(chain[step][0])
            if previous is not None:
                prev_step, prev_app = previous
                # Neighbours differ by the later version's bump.
                changed = set(chain[max(step, prev_step)][1])
                for signature, method in decoded.method_table.items():
                    shared = method is prev_app.method_table[signature]
                    assert shared == (signature not in changed), signature
            previous = (step, decoded)

    def test_counters_reach_the_ledger(self):
        (old, _), (new, changed) = _chain(versions=2)
        unpack_app(EMPTY)
        with obs.tracing() as tracer:
            unpack_app(pack_app(old))
            unpack_app(pack_app(new))
        counters = tracer.counters
        assert counters["apk.methods_decoded"] == len(old.methods) + len(changed)
        assert counters["apk.methods_reused"] == len(new.methods) - len(changed)
        rendered = render_ledger(run_ledger(tracer))
        assert "apk.methods_decoded" in rendered
        assert "apk.methods_reused" in rendered


def _rejected_containers(donor: AndroidApp):
    """Containers from another app that fail decoding or validation."""
    blob = pack_app(donor)
    yield "truncated", blob[: len(blob) * 3 // 4]
    yield "duplicate signature", pack_app(
        SimpleNamespace(
            package=donor.package,
            category=donor.category,
            global_fields=donor.global_fields,
            components=donor.components,
            methods=donor.methods + donor.methods[:1],
        )
    )
    orphan = Component(
        name="com.orphan.Main",
        kind=ComponentKind.ACTIVITY,
        callbacks={"onCreate": "com.orphan.Main.onCreate()V"},
    )
    yield "unknown callback", pack_app(
        SimpleNamespace(
            package=donor.package,
            category=donor.category,
            global_fields=donor.global_fields,
            components=donor.components + (orphan,),
            methods=donor.methods,
        )
    )


class TestRejectedContainerKeepsTable:
    @pytest.mark.parametrize(
        "name", ["truncated", "duplicate signature", "unknown callback"]
    )
    def test_rejection_leaves_table(self, name):
        old, new, changed = _version_pair()
        donor = generate_app(12, PROFILE)
        rejected = dict(_rejected_containers(donor))[name]
        # Decoded alone, the donor's records would fill the table.
        assert not set(donor.method_table) & set(old.method_table)

        decoded_old = unpack_app(pack_app(old))
        with pytest.raises(ValueError):
            unpack_app(rejected)
        decoded_new = unpack_app(pack_app(new))
        for signature, method in decoded_new.method_table.items():
            shared = method is decoded_old.method_table[signature]
            assert shared == (signature not in changed), signature


class TestThreadedDecodes:
    def test_concurrent_decodes_equal_cold(self):
        chain = _chain(seed=31, versions=3)
        blobs = [pack_app(app) for app, _ in chain]
        expected = [print_app(app) for app, _ in chain]
        mismatches = []

        def decode(start: int) -> None:
            for step in range(30):
                version = (start + step) % len(blobs)
                if print_app(unpack_app(blobs[version])) != expected[version]:
                    mismatches.append(version)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=decode, args=(start,))
                for start in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
