"""Shared fixtures: hand-built apps and scaled-down generator profiles."""

from __future__ import annotations

import pytest

from repro.apk.generator import AppGenerator, GeneratorProfile
from repro.ir.parser import parse_app

#: A tiny, fully hand-written app exercising loops, heap flow, globals,
#: calls (internal + external), and a genuine taint leak.
DEMO_APP_SOURCE = """
app com.demo category tools
global com.demo.G.gCache: Ljava/lang/Object;
component com.demo.Main activity exported
  filter android.intent.action.MAIN
  callback onCreate com.demo.Main.onCreate(Landroid/content/Intent;)V
end
method com.demo.Main.onCreate(Landroid/content/Intent;)V
  param intent: Landroid/content/Intent;
  local obj: Ljava/lang/Object;
  local tmp: Ljava/lang/Object;
  local i: I
  L0: obj := new java.lang.Object
  L1: obj.f := intent
  L2: tmp := obj.f
  L3: @@com.demo.G.gCache := tmp
  L4: call tmp := com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;(obj)
  L5: if i then goto L0
  L6: return
end
method com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;
  param o: Ljava/lang/Object;
  local r: Ljava/lang/Object;
  L0: r := o.f
  L1: return r
end
"""

#: A hand-written app with a direct source -> sink leak.
LEAKY_APP_SOURCE = """
app com.leaky category spyware
component com.leaky.Main activity exported
  callback onCreate com.leaky.Main.leak()V
end
method com.leaky.Main.leak()V
  local id: Ljava/lang/String;
  local box: Ljava/lang/Object;
  local out: Ljava/lang/String;
  L0: call id := android.telephony.TelephonyManager.getDeviceId()Ljava/lang/String;()
  L1: box := new java.lang.Object
  L2: box.fData := id
  L3: out := box.fData
  L4: call android.telephony.SmsManager.sendTextMessage(Ljava/lang/String;Ljava/lang/String;)V(out, id)
  L5: return
end
method com.leaky.Main.clean()V
  local s: Ljava/lang/String;
  L0: s := "hello"
  L1: call android.util.Log.d(Ljava/lang/String;Ljava/lang/String;)I(s, s)
  L2: return
end
"""


@pytest.fixture
def demo_app():
    return parse_app(DEMO_APP_SOURCE)


@pytest.fixture
def leaky_app():
    return parse_app(LEAKY_APP_SOURCE)


#: Small generator profile: full statement diversity, quick fixpoints.
TINY_PROFILE = GeneratorProfile(scale=0.06, layers_low=2, layers_high=4)
SMALL_PROFILE = GeneratorProfile(scale=0.15, layers_low=3, layers_high=5)


@pytest.fixture
def tiny_generator():
    return AppGenerator(TINY_PROFILE)


@pytest.fixture
def small_generator():
    return AppGenerator(SMALL_PROFILE)


def tiny_app(seed: int):
    """Module-level helper for parametrized/property tests."""
    return AppGenerator(TINY_PROFILE).generate(seed)


def every_method_witnesses(app, idfg, flows):
    """Reference witnesses from every analyzed method's DDG.

    :func:`repro.vetting.ddg.flow_witnesses` builds DDGs only for
    flow-carrying methods and must return exactly these.
    """
    from repro.vetting.ddg import build_ddg

    ddgs = build_ddg(app, idfg)
    witnesses = {}
    for flow in flows:
        ddg = ddgs.get(flow.method)
        if ddg is None:
            continue
        for dependency in ddg.dependencies_of(flow.sink_label):
            path = ddg.witness_path(dependency, flow.sink_label)
            if path and len(path) > 1:
                witnesses[flow.sink_label] = tuple(path)
                break
    return witnesses


@pytest.fixture
def ddg_builds(monkeypatch):
    """Record the method of every DDG built while the test runs."""
    from repro.vetting import ddg

    built = []
    original = ddg.build_method_ddg

    def counting(app, signature, facts):
        built.append(signature)
        return original(app, signature, facts)

    monkeypatch.setattr(ddg, "build_method_ddg", counting)
    return built
