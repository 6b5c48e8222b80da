"""Generated corpora exercise the security-relevant API surfaces."""

from repro.apk.generator import GeneratorProfile, generate_app
from repro.vetting.sources_sinks import ICC_SEND_APIS, is_icc_send, is_sink, is_source


def callees_of(app):
    return [callee for method in app.methods for callee in method.callees()]


class TestSecurityApiCoverage:
    def test_icc_sends_appear_in_corpus(self):
        found = 0
        for seed in range(12):
            app = generate_app(seed, GeneratorProfile(scale=0.3))
            found += sum(1 for c in callees_of(app) if is_icc_send(c))
        assert found > 0, "corpus must exercise the ICC analysis"

    def test_leak_chain_is_never_clobbered(self):
        """The injected source->sink chain survives handler insertion
        for every leaky seed (the regression the protected-label set
        fixed)."""
        profile = GeneratorProfile(scale=0.2, leaky_fraction=1.0)
        for seed in range(8):
            app = generate_app(seed, profile)
            callees = callees_of(app)
            assert any(is_source(c) for c in callees)
            assert any(is_sink(c) for c in callees)
            # The laundering store/load pair around the source must be
            # intact: find the source call and check its method also
            # stores and reloads the fData field.
            for method in app.methods:
                if not any(is_source(c) for c in method.callees()):
                    continue
                texts = [s.text() for s in method.statements]
                source_at = next(
                    i for i, t in enumerate(texts) if "getDeviceId" in t
                    or "getLastKnownLocation" in t
                    or "getAccounts" in t
                    or "ContentResolver.query" in t
                )
                tail = texts[source_at:]
                assert any(".fData :=" in t for t in tail)
                assert any(":= " in t and ".fData" in t.split(":=")[1] for t in tail)

    def test_icc_api_table_consistent(self):
        for api, kind in ICC_SEND_APIS.items():
            assert kind in ("activity", "receiver", "service")
            assert is_icc_send(api)
            assert not is_sink(api) and not is_source(api)
