"""SBDA method summaries (paper Section III-A2).

The plain GPU implementation parallelizes across methods using
Summary-based Bottom-up Data-flow Analysis (after Dillig et al.): each
method gets a *heap-manipulation summary*, computed bottom-up over the
call graph, that lets the IDFG construction apply call effects without
revisiting or interleaving methods.  Methods of the same call-graph
layer are then independent and can run in different thread blocks.

A :class:`MethodSummary` abstracts a callee's effect on its caller in
terms of *sources*:

* ``("fresh",)`` -- an object the callee created (or obtained from a
  deeper opaque call); the caller materializes it as its per-call-site
  opaque instance.
* ``("param", j)`` -- whatever the caller's j-th argument points to.
* ``("global", g)`` -- whatever global ``g`` points to at the call.

The summary records, in those terms, what the method may return, what
it may write into each global, and what it may write into fields of
caller-visible objects.  Summaries are conservative but preserve the
flow- and context-sensitivity of the per-method analyses (the paper
cites JN-SAF for this argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Set, Tuple

from repro.dataflow.bitset import bit_indices
from repro.dataflow.facts import CalleeFootprint, FactSpace, Instance

#: A source term, see module docstring.
Source = Tuple

#: Field-write key: the symbolic target object (a ("param", j) or
#: ("global", g) source) plus the written field name.
FieldKey = Tuple[Source, str]


def classify_instance(instance: Instance) -> Source:
    """Map a callee-space instance to a caller-visible source term."""
    if instance[0] == "param":
        return ("param", instance[1])
    if instance[0] == "global":
        return ("global", instance[1])
    if instance[0] == "pfield":
        # Entry value of a parameter-object field: the caller resolves
        # this with a double dereference at the call site.
        return ("pfield", instance[1], instance[2])
    return ("fresh",)


@dataclass(frozen=True)
class MethodSummary:
    """Heap-manipulation summary of one method."""

    signature: str
    #: May the return value be an object the caller cannot otherwise see?
    returns_fresh: bool = False
    #: Parameter indices the return value may alias.
    return_params: FrozenSet[int] = frozenset()
    #: Globals whose (entry) value the return may alias.
    return_globals: FrozenSet[str] = frozenset()
    #: (param index, field) entry values the return may alias.
    return_pfields: FrozenSet[Tuple[int, str]] = frozenset()
    #: Global name -> source terms that may be written into it.
    global_writes: Mapping[str, FrozenSet[Source]] = field(default_factory=dict)
    #: (symbolic object, field) -> source terms written into that field.
    field_writes: Mapping[FieldKey, FrozenSet[Source]] = field(default_factory=dict)
    #: Globals the method (transitively) reads.
    globals_read: FrozenSet[str] = frozenset()

    def footprint(self) -> CalleeFootprint:
        """What a caller's fact space must contain to apply this summary.

        The summary is immutable, so the footprint is computed once and
        memoized on the instance: every block of every layer re-resolves
        its callees' footprints on the hot path.
        """
        cached = self.__dict__.get("_footprint")
        if cached is not None:
            return cached
        globals_touched = set(self.globals_read) | set(self.global_writes)
        globals_touched |= self.return_globals
        for (target, _field_name) in self.field_writes:
            if target[0] == "global":
                globals_touched.add(target[1])
        for sources in self.global_writes.values():
            globals_touched |= {s[1] for s in sources if s[0] == "global"}
        for sources in self.field_writes.values():
            globals_touched |= {s[1] for s in sources if s[0] == "global"}
        fields_written = set(
            field_name for (_target, field_name) in self.field_writes
        )
        # Fields read back through ("pfield", j, f) sources must exist
        # as heap cells in the caller's fact space, too.
        fields_written |= {f for (_j, f) in self.return_pfields}
        for sources in self.global_writes.values():
            fields_written |= {s[2] for s in sources if s[0] == "pfield"}
        for sources in self.field_writes.values():
            fields_written |= {s[2] for s in sources if s[0] == "pfield"}
        # Writes into the fields of pfield objects need the pfield's
        # own field materialized in the caller as well.
        for (target, _field_name) in self.field_writes:
            if target[0] == "pfield":
                fields_written |= {target[2]}
        result = CalleeFootprint(
            globals_touched=frozenset(globals_touched),
            fields_written=frozenset(fields_written),
            returns_value=self.returns_fresh
            or bool(self.return_params)
            or bool(self.return_globals)
            or bool(self.return_pfields),
        )
        object.__setattr__(self, "_footprint", result)
        return result

    def is_identity(self) -> bool:
        """True when applying this summary can never add a fact."""
        return not (
            self.returns_fresh
            or self.return_params
            or self.return_globals
            or self.return_pfields
            or self.global_writes
            or self.field_writes
        )


#: Summary used for callees outside the app (framework / library
#: methods): returns an opaque fresh object, no visible heap effects.
def external_summary(signature: str) -> MethodSummary:
    """Conservative summary for app-external callees."""
    return MethodSummary(signature=signature, returns_fresh=True)


class SummaryBuilder:
    """Extract a :class:`MethodSummary` from a finished per-method analysis.

    The builder inspects the *exit OUT* row produced by a
    fixed-point run (any engine -- they all agree) and classifies every
    instance into source terms.
    """

    def __init__(self, space: FactSpace) -> None:
        self.space = space

    def build(self, exit_row: int) -> MethodSummary:
        """Extract the summary from the method's exit OUT row."""
        space = self.space
        returns_fresh = False
        return_params: Set[int] = set()
        return_globals: Set[str] = set()
        return_pfields: Set[Tuple[int, str]] = set()
        global_writes: Dict[str, Set[Source]] = {}
        field_writes: Dict[FieldKey, Set[Source]] = {}

        return_slot = space.return_slot()
        for fact in bit_indices(exit_row):
            slot_index, instance_index = space.decode(fact)
            slot = space.slots[slot_index]
            instance = space.instances[instance_index]
            source = classify_instance(instance)

            if slot_index == return_slot:
                if source[0] == "fresh":
                    returns_fresh = True
                elif source[0] == "param":
                    return_params.add(source[1])
                elif source[0] == "pfield":
                    return_pfields.add((source[1], source[2]))
                else:
                    return_globals.add(source[1])
            elif slot[0] == "global":
                name = slot[1]
                # The symbolic entry value flowing through unchanged is
                # not an effect; the caller already has those facts.
                if instance == ("global", name):
                    continue
                global_writes.setdefault(name, set()).add(source)
            elif slot[0] == "heap":
                target_instance = space.instances[slot[1]]
                target = classify_instance(target_instance)
                if target[0] == "fresh":
                    # Writes into objects invisible to the caller do not
                    # escape; they are summarized away.
                    continue
                if (
                    target[0] == "param"
                    and instance == ("pfield", target[1], slot[2])
                ):
                    # The symbolic entry value of this very field flowing
                    # through unchanged is not an effect.
                    continue
                field_writes.setdefault((target, slot[2]), set()).add(source)

        return MethodSummary(
            signature=str(space.method.signature),
            returns_fresh=returns_fresh,
            return_params=frozenset(return_params),
            return_globals=frozenset(return_globals),
            return_pfields=frozenset(return_pfields),
            global_writes={
                name: frozenset(sources) for name, sources in global_writes.items()
            },
            field_writes={
                key: frozenset(sources) for key, sources in field_writes.items()
            },
            globals_read=frozenset(space.globals),
        )
