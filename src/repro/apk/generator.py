"""Synthetic Android app generator, fit to the paper's Table I.

The generator produces whole apps -- components, layered call graphs,
method bodies drawn from the full statement/expression taxonomy --
with size distributions whose corpus averages match Table I:

=====================  ======
no. of CFG nodes        6217
no. of methods           268
no. of variables         116
max worklist length       74
=====================  ======

Determinism: every app is a pure function of its seed and profile, so
corpora are reproducible and experiments are re-runnable bit-for-bit.

Realism levers that matter to the evaluation:

* *statement mix* -- drives the 25-way branch-divergence profile and
  the one-time/single/double-layer group shares;
* *loop density* -- drives revisit counts and hence worklist
  iterations (Table II) and fact-set growth (allocation stalls);
* *call structure* -- bottom-up layer depth determines how many kernel
  launches an app needs and how wide each layer is;
* *source/sink API calls* -- a configurable fraction of apps contains
  a genuine taint flow for the vetting layer to find.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.app import AndroidApp, GlobalField
from repro.ir.component import Component, ComponentKind, LIFECYCLE_CALLBACKS
from repro.ir.expressions import (
    AccessExpr,
    BinaryExpr,
    CastExpr,
    CmpExpr,
    ConstClassExpr,
    IndexingExpr,
    InstanceOfExpr,
    LengthExpr,
    LiteralExpr,
    NewExpr,
    NullExpr,
    StaticFieldAccessExpr,
    TupleExpr,
    UnaryExpr,
    VariableNameExpr,
)
from repro.ir.expressions import ExceptionExpr
from repro.ir.method import ExceptionHandler, Method, MethodSignature, Parameter
from repro.ir.statements import (
    AssignmentStatement,
    CallStatement,
    EmptyStatement,
    GotoStatement,
    IfStatement,
    MonitorStatement,
    ReturnStatement,
    Statement,
    SwitchStatement,
    ThrowStatement,
    may_throw,
)
from repro.ir.types import (
    INT,
    JawaType,
    ObjectType,
    OBJECT,
    VOID,
)

#: Play-store categories the corpus samples from ("randomly selected
#: from different categories", Section V).
CATEGORIES = (
    "games",
    "social",
    "productivity",
    "finance",
    "media",
    "shopping",
    "travel",
    "education",
    "health",
    "news",
)

#: Framework "source" APIs (produce sensitive data) and "sink" APIs
#: (exfiltrate data); both are app-external, so the analysis models
#: them with the opaque external summary -- exactly how the vetting
#: plugin wants them.
SOURCE_APIS = (
    "android.telephony.TelephonyManager.getDeviceId()Ljava/lang/String;",
    "android.location.LocationManager.getLastKnownLocation(Ljava/lang/String;)Landroid/location/Location;",
    "android.accounts.AccountManager.getAccounts()[Landroid/accounts/Account;",
    "android.content.ContentResolver.query(Landroid/net/Uri;)Landroid/database/Cursor;",
)
SINK_APIS = (
    "android.telephony.SmsManager.sendTextMessage(Ljava/lang/String;Ljava/lang/String;)V",
    "java.net.HttpURLConnection.connect(Ljava/lang/String;)V",
    "android.util.Log.d(Ljava/lang/String;Ljava/lang/String;)I",
    "java.io.FileOutputStream.write(Ljava/lang/String;)V",
)

#: Object classes allocated by synthetic apps.
OBJECT_CLASSES = (
    "java.lang.Object",
    "java.lang.StringBuilder",
    "android.content.Intent",
    "android.os.Bundle",
    "java.util.ArrayList",
    "java.util.HashMap",
    "android.view.View",
    "android.graphics.Bitmap",
)

FIELD_NAMES = ("fData", "fNext", "fOwner", "fCache", "fItems", "fCtx")


@dataclass(frozen=True)
class GeneratorProfile:
    """Tunable shape of generated apps.

    Defaults are fit so 1000 seed-varied apps average Table I; see
    ``tests/test_generator.py::test_table1_band`` for the asserted
    bands.  ``scale`` multiplies the method count (benchmarks may use
    scaled-down corpora for wall-clock reasons -- the *relative*
    results are scale-invariant, which ``bench_ablation_scale``
    demonstrates).
    """

    scale: float = 1.0
    mean_methods: float = 268.0
    #: Log-normal sigma of per-app size multipliers (heavy tail: the
    #: paper's slowest apps take 38 minutes, its fastest seconds).
    size_sigma: float = 0.55
    mean_statements_per_method: float = 19.5
    min_statements: int = 6
    max_statements: int = 120
    components_low: int = 1
    components_high: int = 6
    #: Number of distinct register-style variable names (Table I's
    #: "no. of Variable" counts distinct names app-wide).
    variable_pool: int = 110
    object_locals_low: int = 2
    object_locals_high: int = 7
    primitive_locals_low: int = 1
    primitive_locals_high: int = 3
    globals_low: int = 2
    globals_high: int = 8
    #: Probability a method body contains a back edge (loop).
    loop_probability: float = 0.62
    #: Mean internal calls per method (layered DAG).
    calls_per_method: float = 2.2
    #: Probability a call site targets a same-layer/self method
    #: (creates recursion SCCs).
    recursion_probability: float = 0.02
    #: Fraction of apps that contain a real source -> sink taint flow.
    leaky_fraction: float = 0.3
    #: Call-graph layer count range.
    layers_low: int = 4
    layers_high: int = 9
    #: Probability a method has a try/catch region (Dalvik-style
    #: exceptional edges from every throwing statement to the handler).
    catch_probability: float = 0.7
    #: Source/sink API pools the injected leak draws from.  ``None``
    #: keeps the default pools (and the default RNG stream); rule-pack
    #: scenario corpora override these so each pack's APIs appear in
    #: generated apps.
    leak_sources: Optional[Tuple[str, ...]] = None
    leak_sinks: Optional[Tuple[str, ...]] = None
    #: When True every injected leak routes the sensitive value through
    #: a sanitizer call before the sink -- the ground-truth *sanitized
    #: false positive* scenario (a pack registering the sanitizer must
    #: NOT report the flow).  Off by default (no extra RNG draws).
    sanitize_leaks: bool = False
    #: Sanitizer signatures ``sanitize_leaks`` draws from.
    sanitizer_apis: Tuple[str, ...] = ()
    #: When True the injected chain's helper register is drawn distinct
    #: from the carrier register.  Tiny scenario apps have so few
    #: object registers that the two can collide, and the helper's
    #: allocation then strong-updates the tainted binding away --
    #: making the ground-truth positive undetectable.  Off by default
    #: (the collision is part of the realistic corpus noise).
    distinct_leak_vars: bool = False
    #: When True the injected leak's sink is an ICC Intent send (the
    #: tainted value leaves through a component boundary instead of a
    #: data sink).  Off by default.
    leak_via_icc: bool = False
    #: Intent-target binding mode for the injected ICC leak: ``""``
    #: emits no binding (the legacy over-approximated send),
    #: ``"constant"`` binds the Intent to the app's synthesized
    #: ``.Target`` component with a compile-time-constant name (the
    #: resolver classifies the send ``exact``), ``"dynamic"`` computes
    #: the name at runtime (unresolvable, stays ``over-approx``).
    #: Either non-empty mode also appends the ``.Target`` component.
    icc_target_mode: str = ""
    #: When True (with ``icc_target_mode="constant"``) the ``.Target``
    #: component's callback forwards its Intent parameter into a data
    #: sink, so the app contains a full linked inter-component leak.
    icc_linked_leak: bool = False
    #: Data-sink API the linked receiver calls (default: Log.d).
    icc_linked_sink: str = ""
    #: When True the random statement mix never emits background ICC
    #: sends; the injected leak's send (if any) is the only one.  Keeps
    #: ground-truth ICC scenarios free of untracked sends without
    #: shifting the RNG stream (the roll is drawn either way).
    suppress_icc_noise: bool = False

    def scaled(self, scale: float) -> "GeneratorProfile":
        """Copy with selected constants overridden."""
        return replace(self, scale=scale)


@dataclass(frozen=True)
class _AppKnobs:
    """Per-app sampled behaviour knobs.

    Real corpora are heterogeneous: some apps are loop- and heap-heavy
    (points-to churn, huge fact sets), others are shallow glue code.
    Sampling these per app is what produces the paper's wide per-app
    spreads (MAT speedups of 7.6x to 92.4x; a plain-GPU-slower-than-CPU
    tail in Fig. 4).
    """

    loop_probability: float
    store_bias: float
    catch_probability: float
    relay_bias: float


class AppGenerator:
    """Deterministic generator of one app per (seed, profile).

    With ``self_check=True`` every generated app is verified against
    the full :mod:`repro.lint` pass suite before it leaves the
    generator, and a :class:`repro.lint.LintError` is raised if any
    finding (warnings included) survives -- the generator's contract
    is a corpus that lints clean.
    """

    def __init__(
        self,
        profile: Optional[GeneratorProfile] = None,
        self_check: bool = False,
    ) -> None:
        self.profile = profile or GeneratorProfile()
        self.self_check = self_check

    def _sample_knobs(self, rng: random.Random) -> _AppKnobs:
        profile = self.profile
        return _AppKnobs(
            loop_probability=min(
                0.9, max(0.08, rng.gauss(profile.loop_probability, 0.25))
            ),
            store_bias=math.exp(rng.gauss(0.0, 0.6)),
            catch_probability=min(
                0.95, max(0.1, rng.gauss(profile.catch_probability, 0.2))
            ),
            relay_bias=math.exp(rng.gauss(0.0, 0.55)),
        )

    # -- public API ----------------------------------------------------------------

    def generate(self, seed: int) -> AndroidApp:
        """Generate one deterministic app for ``seed``."""
        rng = random.Random(seed)
        profile = self.profile
        category = rng.choice(CATEGORIES)
        package = f"com.{category}.app{seed & 0xFFFF:04x}"
        knobs = self._sample_knobs(rng)

        # Log-normal size multiplier, mean-normalized to 1.0 so the
        # corpus average tracks mean_methods while keeping the heavy
        # right tail real corpora show.
        sigma = profile.size_sigma
        size_multiplier = math.exp(rng.gauss(0.0, sigma) - sigma * sigma / 2.0)
        method_count = max(
            4, int(profile.mean_methods * profile.scale * size_multiplier)
        )

        globals_ = self._make_globals(rng, package)
        layers = self._layer_sizes(rng, method_count)
        signatures = self._make_signatures(rng, package, layers)
        leaky = rng.random() < profile.leaky_fraction

        methods: List[Method] = []
        flat: List[Tuple[int, MethodSignature]] = [
            (layer_index, signature)
            for layer_index, layer in enumerate(signatures)
            for signature in layer
        ]
        # One leaky method (if any) carries the source -> sink flow.
        leak_carrier = rng.randrange(len(flat)) if leaky and flat else -1
        icc_target = (
            f"{package}.Target" if profile.icc_target_mode else None
        )
        for index, (layer_index, signature) in enumerate(flat):
            methods.append(
                self._make_method(
                    rng,
                    signature,
                    layer_index,
                    signatures,
                    globals_,
                    knobs,
                    inject_leak=(index == leak_carrier),
                    icc_target=icc_target,
                )
            )

        top_layer_count = sum(len(layer) for layer in signatures[-2:])
        components = self._make_components(
            rng, package, methods, top_layer_count
        )
        if profile.icc_target_mode:
            # Appended after the drawn components/methods so the RNG
            # stream (and thus every other draw) is unchanged.
            target_method, target_component = self._make_icc_target(package)
            methods.append(target_method)
            components.append(target_component)
        app = AndroidApp(
            package=package,
            components=components,
            methods=methods,
            global_fields=globals_,
            category=category,
        )
        if self.self_check:
            from repro.lint import LintError, run_lint

            report = run_lint(app)
            if not report.is_clean:
                raise LintError(report)
        return app

    # -- structure -----------------------------------------------------------------

    def _make_globals(
        self, rng: random.Random, package: str
    ) -> List[GlobalField]:
        profile = self.profile
        count = rng.randint(profile.globals_low, profile.globals_high)
        return [
            GlobalField(
                name=f"{package}.G.g{index}",
                type=ObjectType(rng.choice(OBJECT_CLASSES)),
            )
            for index in range(count)
        ]

    def _layer_sizes(self, rng: random.Random, method_count: int) -> List[int]:
        """Split methods over call-graph layers, wider at the bottom."""
        profile = self.profile
        layer_count = rng.randint(profile.layers_low, profile.layers_high)
        layer_count = min(layer_count, max(1, method_count))
        # Geometric taper: layer i gets weight r^i (leaves are layer 0).
        ratio = 0.72
        weights = [ratio**i for i in range(layer_count)]
        total = sum(weights)
        sizes = [max(1, int(method_count * w / total)) for w in weights]
        # Fix rounding drift on the leaf layer.
        sizes[0] += method_count - sum(sizes)
        if sizes[0] < 1:
            sizes[0] = 1
        return sizes

    def _make_signatures(
        self, rng: random.Random, package: str, layers: Sequence[int]
    ) -> List[List[MethodSignature]]:
        signatures: List[List[MethodSignature]] = []
        counter = 0
        for layer_index, size in enumerate(layers):
            layer: List[MethodSignature] = []
            for _ in range(size):
                owner = f"{package}.C{counter % 17}"
                param_count = rng.choice((0, 1, 1, 2, 2, 3))
                params = tuple(
                    ObjectType(rng.choice(OBJECT_CLASSES))
                    for _ in range(param_count)
                )
                returns_object = rng.random() < 0.5
                ret: JawaType = (
                    ObjectType(rng.choice(OBJECT_CLASSES))
                    if returns_object
                    else VOID
                )
                layer.append(
                    MethodSignature(
                        owner=owner,
                        name=f"m{counter}",
                        param_types=params,
                        return_type=ret,
                    )
                )
                counter += 1
            signatures.append(layer)
        return signatures

    def _make_components(
        self,
        rng: random.Random,
        package: str,
        methods: Sequence[Method],
        top_layer_count: int,
    ) -> List[Component]:
        profile = self.profile
        count = rng.randint(profile.components_low, profile.components_high)
        components: List[Component] = []
        # Lifecycle callbacks come from the top call-graph layers: real
        # onCreate/onResume handlers drive the app's core, which is
        # what makes the environment-rooted ICFG cover most methods.
        top = list(methods[-max(top_layer_count, 1):])
        candidates = [m for m in top if len(m.parameters) <= 3]
        if not candidates:
            candidates = top or list(methods)
        for index in range(count):
            kind = rng.choice(list(ComponentKind))
            callbacks: Dict[str, str] = {}
            wanted = LIFECYCLE_CALLBACKS[kind]
            take = rng.randint(1, len(wanted))
            for callback in rng.sample(wanted, take):
                method = rng.choice(candidates)
                callbacks[callback] = str(method.signature)
            exported = rng.random() < 0.35
            # Exported components always advertise an intent filter:
            # an exported, filter-less component is the exposure smell
            # MAN-003 flags, and the generator's contract is a corpus
            # that lints clean.  Derived from the already-drawn flag,
            # so the RNG stream is unchanged.
            if index == 0:
                filters = ["android.intent.action.MAIN"]
            elif exported:
                filters = ["android.intent.action.VIEW"]
            else:
                filters = []
            components.append(
                Component(
                    name=f"{package}.Comp{index}",
                    kind=kind,
                    callbacks=callbacks,
                    exported=exported,
                    intent_filters=filters,
                )
            )
        return components

    def _make_icc_target(
        self, package: str
    ) -> Tuple[Method, Component]:
        """The synthesized in-app receiver of resolved Intent sends.

        Deterministic (no RNG): a private activity whose ``onCreate``
        forwards its Intent parameter into a data sink when
        ``icc_linked_leak`` is set, and does nothing otherwise.  Not
        exported and without intent filters, so it never widens the
        over-approximated receiver set -- only exact resolution
        reaches it.
        """
        profile = self.profile
        signature = MethodSignature(
            owner=f"{package}.Target",
            name="onCreate",
            param_types=(ObjectType("android.content.Intent"),),
            return_type=VOID,
        )
        statements: List[Statement] = []
        if profile.icc_linked_leak:
            sink = profile.icc_linked_sink or SINK_APIS[2]
            blob = sink[sink.rindex("(") + 1 : sink.rindex(")")]
            arity = max(1, len(_split_params(blob)))
            statements.append(
                CallStatement(
                    label="L0",
                    callee=sink,
                    args=("a0",) * arity,
                    result=None,
                )
            )
        statements.append(
            ReturnStatement(label=f"L{len(statements)}", operand=None)
        )
        method = Method(
            signature=signature,
            parameters=[
                Parameter(
                    name="a0", type=ObjectType("android.content.Intent")
                )
            ],
            locals=[],
            statements=statements,
            handlers=[],
        )
        component = Component(
            name=f"{package}.Target",
            kind=ComponentKind.ACTIVITY,
            callbacks={"onCreate": str(signature)},
            exported=False,
            intent_filters=[],
        )
        return method, component

    # -- method bodies --------------------------------------------------------------

    def _make_method(
        self,
        rng: random.Random,
        signature: MethodSignature,
        layer_index: int,
        signatures: Sequence[Sequence[MethodSignature]],
        globals_: Sequence[GlobalField],
        knobs: _AppKnobs,
        inject_leak: bool,
        icc_target: Optional[str] = None,
    ) -> Method:
        profile = self.profile
        statement_target = max(
            profile.min_statements,
            min(
                profile.max_statements,
                int(rng.expovariate(1.0 / profile.mean_statements_per_method))
                + profile.min_statements // 2,
            ),
        )

        # Variable pools: register-style names shared across methods so
        # the app-wide distinct-name count matches Table I.
        object_count = rng.randint(
            profile.object_locals_low, profile.object_locals_high
        )
        primitive_count = rng.randint(
            profile.primitive_locals_low, profile.primitive_locals_high
        )
        pool = profile.variable_pool
        object_names = [f"v{rng.randrange(pool)}" for _ in range(object_count)]
        object_names = list(dict.fromkeys(object_names)) or ["v0"]
        taken = set(object_names)
        primitive_names = []
        for _ in range(primitive_count):
            name = f"p{rng.randrange(pool // 4 or 1)}"
            if name not in taken:
                primitive_names.append(name)
                taken.add(name)
        if not primitive_names:
            primitive_names = ["p0"]

        parameters = [
            Parameter(name=f"a{index}", type=ptype)
            for index, ptype in enumerate(signature.param_types)
        ]
        locals_ = [
            Parameter(name=name, type=ObjectType(rng.choice(OBJECT_CLASSES)))
            for name in object_names
        ] + [Parameter(name=name, type=INT) for name in primitive_names]

        object_vars = [p.name for p in parameters if p.type.is_object] + list(
            object_names
        )
        callees = self._callee_pool(rng, signature, layer_index, signatures)

        builder = _BodyBuilder(
            rng=rng,
            profile=profile,
            object_vars=object_vars,
            primitive_vars=primitive_names,
            globals_=[g.name for g in globals_],
            callees=callees,
            returns_object=signature.return_type.is_object,
            knobs=knobs,
            icc_target=icc_target,
        )
        statements = builder.build(statement_target, inject_leak)
        return Method(
            signature=signature,
            parameters=parameters,
            locals=locals_,
            statements=statements,
            handlers=builder.handlers,
        )

    def _callee_pool(
        self,
        rng: random.Random,
        signature: MethodSignature,
        layer_index: int,
        signatures: Sequence[Sequence[MethodSignature]],
    ) -> List[Tuple[str, int, bool]]:
        """(callee signature, arity, returns object) call targets."""
        profile = self.profile
        pool: List[Tuple[str, int, bool]] = []
        if profile.calls_per_method <= 0 or layer_index == 0:
            call_budget = 0
        else:
            # Non-leaf methods always call at least one lower-layer
            # method; the env-rooted ICFG then covers the app the way
            # real lifecycle code does.
            call_budget = max(1, round(rng.expovariate(1.0 / profile.calls_per_method)))
        for _ in range(call_budget):
            if rng.random() >= profile.recursion_probability:
                # Prefer the adjacent lower layer (call chains, not
                # star graphs), with occasional deep skips.
                lower = (
                    layer_index - 1
                    if rng.random() < 0.6
                    else rng.randrange(layer_index)
                )
                target = rng.choice(signatures[lower])
            else:
                target = signature  # self-recursion
            pool.append(
                (
                    str(target),
                    len(target.param_types),
                    target.return_type.is_object,
                )
            )
        return pool


class _BodyBuilder:
    """Generates one method body with valid labels and jump targets."""

    def __init__(
        self,
        rng: random.Random,
        profile: GeneratorProfile,
        object_vars: List[str],
        primitive_vars: List[str],
        globals_: List[str],
        callees: List[Tuple[str, int, bool]],
        returns_object: bool,
        knobs: Optional[_AppKnobs] = None,
        icc_target: Optional[str] = None,
    ) -> None:
        self.rng = rng
        self.profile = profile
        self.knobs = knobs or _AppKnobs(
            loop_probability=profile.loop_probability,
            store_bias=1.0,
            catch_probability=profile.catch_probability,
            relay_bias=1.0,
        )
        self.object_vars = object_vars
        self.primitive_vars = primitive_vars
        self.globals = globals_
        self.callees = callees
        self.returns_object = returns_object
        self.icc_target = icc_target
        self.statements: List[Statement] = []
        self.handlers: List[ExceptionHandler] = []
        #: Labels the handler injector must not clobber (the injected
        #: source->sink chain must stay intact).
        self.protected_labels: set = set()
        #: Set when the injected leak was sanitized: the clean result
        #: register.  The method then returns it (instead of a random
        #: register) so no tainted local escapes through the return --
        #: the sanitized scenario must be a true negative end to end.
        self._sanitized_result: Optional[str] = None

    # -- helpers ---------------------------------------------------------------

    def _label(self) -> str:
        return f"L{len(self.statements)}"

    def _ovar(self) -> str:
        return self.rng.choice(self.object_vars)

    def _pvar(self) -> str:
        return self.rng.choice(self.primitive_vars)

    def _field(self) -> str:
        return self.rng.choice(FIELD_NAMES)

    def _global(self) -> Optional[str]:
        return self.rng.choice(self.globals) if self.globals else None

    # -- statement emitters ------------------------------------------------------

    def _emit_assignment(self) -> Statement:
        rng = self.rng
        label = self._label()
        lhs = self._ovar()
        roll = rng.random()
        if roll < 0.16:
            rhs = NewExpr(allocated=ObjectType(rng.choice(OBJECT_CLASSES)))
        elif roll < 0.34:
            rhs = VariableNameExpr(name=self._ovar())
        elif roll < 0.46:
            rhs = AccessExpr(base=self._ovar(), field_name=self._field())
        elif roll < 0.54:
            rhs = LiteralExpr(value=rng.choice(
                ("token", "payload", "cfg", "uri")
            ))
        elif roll < 0.60 and self.globals:
            name = self._global()
            owner, _, field_name = name.rpartition(".")
            rhs = StaticFieldAccessExpr(owner=owner, field_name=field_name)
        elif roll < 0.66:
            rhs = CastExpr(target=OBJECT, operand=self._ovar())
        elif roll < 0.72:
            rhs = IndexingExpr(base=self._ovar(), index=self._pvar())
        elif roll < 0.76:
            rhs = NullExpr()
        elif roll < 0.79:
            rhs = ConstClassExpr(referenced=ObjectType(rng.choice(OBJECT_CLASSES)))
        elif roll < 0.82:
            rhs = TupleExpr(elements=(self._ovar(), self._ovar()))
        else:
            # Primitive-valued expressions write primitive locals.
            lhs = self._pvar()
            kind = rng.random()
            if kind < 0.18:
                # Integer constants (dex const/16 etc.) -- also what
                # gives the IDE constant-propagation client real work.
                rhs = LiteralExpr(value=rng.choice((0, 1, 2, 8, 64, 1024)))
            elif kind < 0.45:
                rhs = BinaryExpr(op=rng.choice("+-*&|^"), left=self._pvar(), right=self._pvar())
            elif kind < 0.6:
                rhs = UnaryExpr(op=rng.choice("-!~"), operand=self._pvar())
            elif kind < 0.75:
                rhs = CmpExpr(op=rng.choice(("cmp", "cmpl", "cmpg")), left=self._pvar(), right=self._pvar())
            elif kind < 0.88:
                rhs = InstanceOfExpr(operand=self._ovar(), tested=OBJECT)
            else:
                rhs = LengthExpr(operand=self._ovar())
        return AssignmentStatement(label=label, lhs=lhs, rhs=rhs)

    def _emit_heap_store(self) -> Statement:
        rng = self.rng
        label = self._label()
        base = self._ovar()
        value_roll = rng.random()
        relay_hi = min(0.9, 0.5 + 0.25 * self.knobs.relay_bias)
        if value_roll < 0.5:
            rhs = VariableNameExpr(name=self._ovar())
        elif value_roll < relay_hi:
            # Cell-to-cell relay (o.f := p.g): facts advance one heap
            # hop per loop circulation, the slow-convergence pattern
            # that keeps real points-to analyses iterating.
            rhs = AccessExpr(base=self._ovar(), field_name=self._field())
        elif value_roll < min(0.97, relay_hi + 0.17):
            rhs = NewExpr(allocated=ObjectType(rng.choice(OBJECT_CLASSES)))
        else:
            rhs = LiteralExpr(value="blob")
        if rng.random() < 0.8:
            access = AccessExpr(base=base, field_name=self._field())
        else:
            access = IndexingExpr(base=base, index=self._pvar())
        return AssignmentStatement(
            label=label, lhs=base, rhs=rhs, lhs_access=access
        )

    def _emit_static_store(self) -> Optional[Statement]:
        name = self._global()
        if name is None:
            return None
        owner, _, field_name = name.rpartition(".")
        access = StaticFieldAccessExpr(owner=owner, field_name=field_name)
        return AssignmentStatement(
            label=self._label(),
            lhs=access.global_slot,
            rhs=VariableNameExpr(name=self._ovar()),
            lhs_access=access,
        )

    def _emit_call(self) -> Optional[Statement]:
        if not self.callees:
            return None
        callee, arity, returns_object = self.rng.choice(self.callees)
        args = tuple(self._ovar() for _ in range(arity))
        result = self._ovar() if returns_object and self.rng.random() < 0.7 else None
        return CallStatement(
            label=self._label(), callee=callee, args=args, result=result
        )

    def _emit_external_call(self, api: str, result: Optional[str]) -> Statement:
        signature_end = api.rindex("(")
        blob = api[signature_end + 1 : api.rindex(")")]
        arity = len(_split_params(blob))
        args = tuple(self._ovar() for _ in range(arity))
        return CallStatement(
            label=self._label(), callee=api, args=args, result=result
        )

    def _emit_icc_send(self) -> Statement:
        """An inter-component Intent send (exercises the ICC analysis)."""
        from repro.vetting.sources_sinks import ICC_SEND_APIS

        api = self.rng.choice(sorted(ICC_SEND_APIS))
        return self._emit_external_call(api, None)

    # -- body assembly --------------------------------------------------------------

    def build(
        self, statement_target: int, inject_leak: bool
    ) -> List[Statement]:
        """Extract the summary from the method's exit OUT facts."""
        rng = self.rng
        body_len = max(self.profile.min_statements, statement_target)
        # Reserve the final slot for the return.
        interior = body_len - 1
        emitted = 0
        emitted_call = False
        while emitted < interior:
            roll = rng.random()
            statement: Optional[Statement] = None
            bias = self.knobs.store_bias
            heap_hi = 0.46 + 0.12 * bias
            static_hi = heap_hi + 0.06 * bias
            call_hi = static_hi + 0.09
            if roll < 0.46:
                statement = self._emit_assignment()
            elif roll < heap_hi:
                statement = self._emit_heap_store()
            elif roll < static_hi:
                statement = self._emit_static_store()
            elif roll < call_hi:
                statement = self._emit_call()
            elif roll < call_hi + 0.008:
                if self.profile.suppress_icc_noise:
                    statement = EmptyStatement(label=self._label())
                else:
                    statement = self._emit_icc_send()
            elif roll < call_hi + 0.018:
                statement = MonitorStatement(
                    label=self._label(),
                    enter=rng.random() < 0.5,
                    operand=self._ovar(),
                )
            else:
                # Control flow is patched in afterwards; emit a nop
                # placeholder that _wire_control may replace.
                statement = EmptyStatement(label=self._label())
            if statement is None:
                statement = self._emit_assignment()
            if isinstance(statement, CallStatement) and statement.callee and not statement.callee.startswith(("android.", "java.")):
                emitted_call = True
            self.statements.append(statement)
            emitted += 1

        # A method with internal callees must actually call one of
        # them, or the call graph silently loses its edges.
        if self.callees and not emitted_call:
            statement = self._emit_call()
            if statement is not None:
                self.statements.append(statement)

        if inject_leak:
            self._inject_leak()

        if not self.returns_object:
            return_operand = None
        elif self._sanitized_result is not None:
            return_operand = self._sanitized_result
        else:
            return_operand = self._ovar()
        self.statements.append(
            ReturnStatement(label=self._label(), operand=return_operand)
        )
        self._wire_control()
        self._add_handlers()
        self._repair_reachability()
        return self.statements

    def _add_handlers(self) -> None:
        """Install Dalvik-style try/catch regions.

        The handler statement becomes an ``x := Exception`` catch head;
        the covered range gains exceptional edges from every throwing
        statement, producing the high-fan-in joins real Android CFGs
        have.
        """
        rng = self.rng
        count = len(self.statements)
        if count < 8 or rng.random() >= self.knobs.catch_probability:
            return
        regions = 1 + (1 if (count > 24 and rng.random() < 0.55) else 0)
        def is_protected(index: int) -> bool:
            statement = self.statements[index]
            if statement.label in self.protected_labels:
                return True
            return isinstance(statement, CallStatement) and (
                statement.callee in SOURCE_APIS or statement.callee in SINK_APIS
            )

        cursor_min = 0
        for _ in range(regions):
            handler_index = rng.randrange(
                max(cursor_min + 3, (count * 3) // 5), count - 1
            )
            for _retry in range(4):
                if not is_protected(handler_index):
                    break
                handler_index = rng.randrange(
                    max(cursor_min + 3, (count * 3) // 5), count - 1
                )
            if is_protected(handler_index):
                continue
            start_index = rng.randrange(cursor_min, max(cursor_min + 1, handler_index // 3))
            end_index = rng.randrange(
                max(start_index, handler_index * 2 // 3), handler_index
            )
            labels = [s.label for s in self.statements]
            self.statements[handler_index] = AssignmentStatement(
                label=labels[handler_index],
                lhs=self._ovar(),
                rhs=ExceptionExpr(),
            )
            self.handlers.append(
                ExceptionHandler(
                    start=labels[start_index],
                    end=labels[end_index],
                    handler=labels[handler_index],
                )
            )
            cursor_min = min(handler_index + 1, count - 4)
            if cursor_min >= count - 4:
                break

    def _repair_reachability(self) -> None:
        """Make every statement reachable from the entry.

        ``_wire_control`` can orphan a suffix: an unconditional goto or
        a throw whose textual successor is targeted by nothing.  For
        the smallest unreachable index ``u``, ``statements[u - 1]`` is
        reachable and must be non-falling, i.e. a goto or a throw (the
        return is always last, switches always reach their successor
        through the default case).  Converting that blocker into a
        conditional branch keeps its shape while restoring the
        fall-through edge; repeating to a fixed point makes the whole
        body live.  No RNG is drawn, so the statement stream stays
        aligned with pre-repair seeds.
        """
        while True:
            index = self._first_unreachable()
            if index is None:
                return
            blocker = self.statements[index - 1]
            condition = self.primitive_vars[0]
            replacement: Statement
            if isinstance(blocker, GotoStatement):
                replacement = IfStatement(
                    label=blocker.label,
                    condition=condition,
                    target=blocker.target,
                )
            elif isinstance(blocker, ThrowStatement):
                replacement = IfStatement(
                    label=blocker.label,
                    condition=condition,
                    target=self.statements[-1].label,
                )
            else:  # pragma: no cover - unreachable by construction
                replacement = EmptyStatement(label=blocker.label)
            self.statements[index - 1] = replacement

    def _first_unreachable(self) -> Optional[int]:
        """Smallest statement index unreachable in the body's CFG.

        Replicates :func:`repro.cfg.intra.build_intra_cfg` edge
        semantics (fall-through, jump targets, exceptional edges from
        throwing statements inside handler ranges) without building
        node objects, since this runs once per generated method.
        """
        count = len(self.statements)
        if count == 0:
            return None
        label_index = {s.label: i for i, s in enumerate(self.statements)}
        ranges = [
            (
                label_index[h.start],
                label_index[h.end],
                label_index[h.handler],
            )
            for h in self.handlers
        ]
        seen = [False] * count
        seen[0] = True
        frontier = [0]
        while frontier:
            node = frontier.pop()
            statement = self.statements[node]
            targets = set()
            if statement.falls_through and node + 1 < count:
                targets.add(node + 1)
            for label in statement.jump_targets():
                targets.add(label_index[label])
            if may_throw(statement):
                for start, end, handler in ranges:
                    if start <= node <= end and handler != node:
                        targets.add(handler)
            for target in targets:
                if not seen[target]:
                    seen[target] = True
                    frontier.append(target)
        for index, live in enumerate(seen):
            if not live:
                return index
        return None

    def _inject_leak(self) -> None:
        """Append a genuine source -> sink flow for the vetting layer."""
        rng = self.rng
        profile = self.profile
        first_injected = len(self.statements)
        carrier = self._ovar()
        source = rng.choice(profile.leak_sources or SOURCE_APIS)
        if profile.leak_via_icc:
            from repro.vetting.sources_sinks import ICC_SEND_APIS

            sink = rng.choice(
                profile.leak_sinks or tuple(sorted(ICC_SEND_APIS))
            )
        else:
            sink = rng.choice(profile.leak_sinks or SINK_APIS)
        self.statements.append(self._emit_external_call(source, carrier))
        # Launder through a field to exercise the heap path.
        if profile.distinct_leak_vars:
            others = [v for v in self.object_vars if v != carrier]
            helper = rng.choice(others) if others else self._ovar()
        else:
            helper = self._ovar()
        self.statements.append(
            AssignmentStatement(
                label=self._label(),
                lhs=helper,
                rhs=NewExpr(allocated=ObjectType("java.lang.StringBuilder")),
            )
        )
        self.statements.append(
            AssignmentStatement(
                label=self._label(),
                lhs=helper,
                rhs=VariableNameExpr(name=helper),
                lhs_access=AccessExpr(base=helper, field_name="fData"),
            )
        )
        store = self.statements.pop()
        # fData <- carrier (the tainted value), not helper itself.
        self.statements.append(
            AssignmentStatement(
                label=store.label,
                lhs=helper,
                rhs=VariableNameExpr(name=carrier),
                lhs_access=AccessExpr(base=helper, field_name="fData"),
            )
        )
        loaded = self._ovar()
        self.statements.append(
            AssignmentStatement(
                label=self._label(),
                lhs=loaded,
                rhs=AccessExpr(base=helper, field_name="fData"),
            )
        )
        if profile.sanitize_leaks and profile.sanitizer_apis:
            # Declassify before the sink: what reaches the sink is the
            # sanitizer's (clean) result, so a pack registering this
            # API must stay silent while a pack without it reports.
            sanitizer = rng.choice(profile.sanitizer_apis)
            clean = self._ovar()
            self.statements.append(
                CallStatement(
                    label=self._label(),
                    callee=sanitizer,
                    args=(loaded,),
                    result=clean,
                )
            )
            loaded = clean
            self._sanitized_result = clean
        if profile.leak_via_icc and profile.icc_target_mode and self.icc_target:
            # Bind the Intent's explicit target right before the send.
            # The binding's Intent register IS the send's (shared
            # points-to), so the resolver associates the two sites.
            from repro.vetting.sources_sinks import ICC_TARGET_APIS

            set_class = min(
                sig
                for sig, category in ICC_TARGET_APIS.items()
                if category == "class"
            )
            used = {carrier, helper, loaded}
            spare = [v for v in self.object_vars if v not in used]
            name_var = spare[0] if spare else carrier
            if profile.icc_target_mode == "constant":
                name_rhs: object = LiteralExpr(value=self.icc_target)
            else:
                # A heap load is opaque to the string lattice (TOP):
                # the ground-truth *unresolvable* binding.
                name_rhs = AccessExpr(base=helper, field_name="fCtx")
            self.statements.append(
                AssignmentStatement(
                    label=self._label(), lhs=name_var, rhs=name_rhs
                )
            )
            self.statements.append(
                CallStatement(
                    label=self._label(),
                    callee=set_class,
                    args=(loaded, name_var),
                    result=None,
                )
            )
        self.statements.append(self._emit_external_call(sink, None))
        sink_call = self.statements.pop()
        assert isinstance(sink_call, CallStatement)
        if self._sanitized_result is not None:
            # Every sink argument must be the clean value; a random
            # extra argument could alias a still-tainted register and
            # turn the ground-truth negative into a real flow.
            args = (loaded,) * max(1, len(sink_call.args))
        else:
            args = (loaded,) + sink_call.args[1:] if sink_call.args else (loaded,)
        self.statements.append(
            CallStatement(
                label=sink_call.label,
                callee=sink_call.callee,
                args=args,
                result=None,
            )
        )
        self.protected_labels.update(
            statement.label for statement in self.statements[first_injected:]
        )

    def _entry_target(self, label: str, labels: List[str]) -> str:
        """Clamp jumps into the injected chain to its first statement.

        Only active for ICC-target profiles: a branch into the middle
        of the chain would join an unbound path into the target-name
        register and lift the string lattice to TOP, destroying the
        ground-truth *resolvable* label.  Entering at the chain head
        re-executes the whole chain, which preserves both the taint
        and the constant.  No RNG is drawn either way.
        """
        if self.icc_target is None or label not in self.protected_labels:
            return label
        for candidate in labels:
            if candidate in self.protected_labels:
                return candidate
        return label  # pragma: no cover - protected_labels is non-empty

    def _wire_control(self) -> None:
        """Replace some nops with ifs/gotos/switches with valid targets."""
        rng = self.rng
        count = len(self.statements)
        if count < 4:
            return
        labels = [s.label for s in self.statements]
        # Loops: up to max_back_edges conditional back edges; each one
        # keeps a region of the body re-propagating until its facts
        # saturate, which is what widens the worklists (Table I's max
        # worklist length) and drives the iteration counts (Table II).
        loops_left = 0
        if rng.random() < self.knobs.loop_probability:
            loops_left = 1 + (1 if rng.random() < 0.6 else 0) + (
                1 if rng.random() < 0.3 else 0
            )
        whole_body_loop = loops_left > 0
        for index in range(count - 1):
            if not isinstance(self.statements[index], EmptyStatement):
                continue
            roll = rng.random()
            if (
                whole_body_loop
                and index >= max(2, (count * 3) // 4)
            ):
                # The first back edge spans (most of) the body, so every
                # circulation re-propagates the whole method.
                target = labels[rng.randrange(max(1, count // 8))]
                self.statements[index] = IfStatement(
                    label=labels[index],
                    condition=self._pvar(),
                    target=target,
                )
                whole_body_loop = False
                loops_left -= 1
            elif loops_left and not whole_body_loop and index > 1:
                target = labels[rng.randrange(max(1, index * 3 // 4))]
                self.statements[index] = IfStatement(
                    label=labels[index],
                    condition=self._pvar(),
                    target=target,
                )
                loops_left -= 1
            elif roll < 0.5 and index + 2 < count:
                target = labels[rng.randrange(index + 1, count)]
                self.statements[index] = IfStatement(
                    label=labels[index],
                    condition=self._pvar(),
                    target=self._entry_target(target, labels),
                )
            elif roll < 0.62 and index + 2 < count:
                # Forward goto: skip a small range.
                target = labels[min(count - 1, index + rng.randint(1, 4))]
                self.statements[index] = GotoStatement(
                    label=labels[index],
                    target=self._entry_target(target, labels),
                )
            elif roll < 0.7 and index + 3 < count:
                case_labels = rng.sample(range(index + 1, count), k=min(2, count - index - 1))
                self.statements[index] = SwitchStatement(
                    label=labels[index],
                    operand=self._pvar(),
                    cases=tuple(
                        (value, self._entry_target(labels[target], labels))
                        for value, target in enumerate(sorted(case_labels))
                    ),
                    default=self._entry_target(labels[index + 1], labels),
                )
            elif roll < 0.73:
                self.statements[index] = ThrowStatement(
                    label=labels[index], operand=self._ovar()
                )
            # else: keep the nop.


def _split_params(blob: str) -> List[str]:
    """Split concatenated descriptors (same logic as the parser's)."""
    out: List[str] = []
    i = 0
    while i < len(blob):
        start = i
        while i < len(blob) and blob[i] == "[":
            i += 1
        if i < len(blob) and blob[i] == "L":
            i = blob.index(";", i) + 1
        else:
            i += 1
        out.append(blob[start:i])
    return out


#: ICC-resolution ground-truth scenarios ``icc_scenario_profile``
#: accepts (also the CLI's ``generate --icc-scenario`` choices).
ICC_SCENARIOS = ("constant-target", "dynamic-target", "linked-leak")


def icc_scenario_profile(
    scenario: str, scale: float = 1.0
) -> GeneratorProfile:
    """Profile for one ICC-resolution ground-truth scenario.

    ``constant-target``: the injected leak's Intent is bound to the
    in-app ``.Target`` component with a compile-time constant, and the
    target is inert -- resolution is ``exact``, the receiver set is
    empty, and the app must produce *no* exposure findings.
    ``dynamic-target``: the binding is computed at runtime, so the send
    stays ``over-approx``.  ``linked-leak``: constant binding plus a
    receiver that forwards the Intent into a data sink -- the full
    inter-component leak stitching must surface as a single finding.
    """
    if scenario not in ICC_SCENARIOS:
        raise ValueError(
            f"unknown ICC scenario {scenario!r}; "
            f"expected one of {', '.join(ICC_SCENARIOS)}"
        )
    return GeneratorProfile(
        scale=scale,
        layers_low=2,
        layers_high=4,
        leaky_fraction=1.0,
        leak_via_icc=True,
        distinct_leak_vars=True,
        suppress_icc_noise=True,
        icc_target_mode=(
            "dynamic" if scenario == "dynamic-target" else "constant"
        ),
        icc_linked_leak=scenario == "linked-leak",
    )


def generate_app(
    seed: int,
    profile: Optional[GeneratorProfile] = None,
    self_check: bool = False,
) -> AndroidApp:
    """Generate one deterministic synthetic app."""
    return AppGenerator(profile, self_check=self_check).generate(seed)


def mutate_app(
    app: AndroidApp, seed: int = 0, count: int = 1
) -> Tuple[AndroidApp, Tuple[str, ...]]:
    """Produce a realistic version bump of an existing app.

    ``count`` deterministically chosen method bodies (never synthesized
    ``__env__`` methods) each gain one fresh allocation into an
    object-typed local, prepended at entry under a fresh ``X<n>`` label
    -- a minimal edit a point release would make.  Prepending preserves
    every jump target and catch range (both are label-addressed), so
    the mutated app revalidates under the same invariants.

    Returns ``(new_app, mutated_signatures)``.  The mutation is a pure
    function of ``(app, seed, count)``, so version bumps are as
    reproducible as the corpus itself.
    """
    rng = random.Random(seed)
    eligible = [
        method
        for method in app.methods
        if method.signature.name != "__env__"
        and method.statements
        and any(isinstance(v.type, ObjectType) for v in method.locals)
    ]
    if not eligible or count <= 0:
        return app, ()
    chosen = {
        str(method.signature)
        for method in rng.sample(eligible, k=min(count, len(eligible)))
    }
    methods: List[Method] = []
    for method in app.methods:
        if str(method.signature) not in chosen:
            methods.append(method)
            continue
        target = next(
            v for v in method.locals if isinstance(v.type, ObjectType)
        )
        used = {statement.label for statement in method.statements}
        serial = 0
        while f"X{serial}" in used:
            serial += 1
        allocation = AssignmentStatement(
            label=f"X{serial}",
            lhs=target.name,
            rhs=NewExpr(allocated=target.type),
        )
        methods.append(
            Method(
                method.signature,
                method.parameters,
                method.locals,
                (allocation,) + method.statements,
                method.handlers,
            )
        )
    mutated = AndroidApp(
        app.package,
        app.components,
        methods,
        app.global_fields,
        app.category,
    )
    return mutated, tuple(sorted(chosen))
