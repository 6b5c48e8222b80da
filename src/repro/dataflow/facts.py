"""Slot / instance pools and fact encoding.

The paper's MAT optimization rests on one observation (Section IV-A):
*"the pools of slot and instance can be pre-determined prior to the
worklist algorithm"*.  :class:`FactSpace` is that pre-determination --
given a method body (and the summaries of its callees, which tell us
which globals and fields the calls may touch), it enumerates every
slot and every abstract instance the analysis of that method can ever
mention, and assigns them dense integer ids.

A data-fact ``(slot, instance)`` is encoded as the single integer
``slot_id * instance_count + instance_id`` so fact sets are plain sets
of ints in the hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.expressions import (
    AccessExpr,
    CallRhs,
    ConstClassExpr,
    ExceptionExpr,
    IndexingExpr,
    LiteralExpr,
    NewExpr,
    StaticFieldAccessExpr,
)
from repro.ir.method import Method
from repro.ir.statements import AssignmentStatement, CallStatement

#: Abstract instances are tagged tuples.  Kinds:
#:   ("site", label, class_name)   allocation site in this method
#:   ("null",)                     the null constant
#:   ("const", type_tag)           a literal constant pool ("str", ...)
#:   ("class", class_name)         a class literal
#:   ("exc", label)                the exception object at a catch head
#:   ("param", index)              symbolic: what the caller passed
#:   ("pfield", index, field)      symbolic: entry value of a field of
#:                                 the index-th parameter's object
#:   ("global", name)              symbolic: entry value of a global
#:   ("call", label)               opaque fresh object from a call site
Instance = Tuple

#: Slots are tagged tuples.  Kinds:
#:   ("var", name)                 an object-typed parameter or local
#:   ("global", name)              a static field
#:   ("heap", instance_id, field)  a heap cell of a pool instance
#:   ("ret",)                      the method's return slot
Slot = Tuple

#: Pseudo-field used for array element cells.
ARRAY_FIELD = "[]"


def _literal_tag(value: object) -> Optional[str]:
    """Constant-pool tag for a literal, or None for untracked literals."""
    if isinstance(value, str):
        return "str"
    if isinstance(value, bool):
        return None  # primitive; carries no points-to fact
    if isinstance(value, int) or isinstance(value, float):
        return None
    return None


@dataclass(frozen=True)
class CalleeFootprint:
    """What a callee's summary may touch in the caller's fact space.

    Produced from :class:`repro.dataflow.summaries.MethodSummary`; the
    caller's :class:`FactSpace` must contain the listed global slots
    and must materialize heap cells for the listed fields.
    """

    globals_touched: FrozenSet[str] = frozenset()
    fields_written: FrozenSet[str] = frozenset()
    returns_value: bool = False


class FactSpace:
    """Pre-determined slot and instance pools for one method's analysis.

    Parameters
    ----------
    method:
        The method to be analyzed.
    callee_footprints:
        Mapping from callee signature string to its
        :class:`CalleeFootprint`.  Call sites whose callee is absent
        from the mapping are treated as external (opaque) calls.
    """

    __slots__ = (
        "method",
        "instances",
        "instance_id",
        "slots",
        "slot_id",
        "fields",
        "object_vars",
        "globals",
        "_site_by_label",
        "_call_by_label",
        "_exc_by_label",
    )

    def __init__(
        self,
        method: Method,
        callee_footprints: Optional[Dict[str, CalleeFootprint]] = None,
    ) -> None:
        self.method = method
        footprints = callee_footprints or {}

        self.object_vars: Tuple[str, ...] = method.object_variables()
        object_var_set = set(self.object_vars)

        fields: Set[str] = set()
        #: Fields that may be *stored* in this method (directly or via
        #: a callee's summary).  Cells for non-parameter instances only
        #: exist for these: a never-written cell always reads empty, so
        #: omitting it is sound and keeps the matrix compact.
        stored_fields: Set[str] = set()
        globals_: Set[str] = set()
        instances: List[Instance] = []

        def add_instance(instance: Instance) -> None:
            instances.append(instance)

        # Symbolic parameter instances come first: their ids are stable
        # positions for summary instantiation.
        for index, parameter in enumerate(method.parameters):
            if parameter.type.is_object:
                add_instance(("param", index))

        # Walk the body once, collecting sites, constants, fields,
        # globals and call sites in statement order (deterministic ids).
        has_null = False
        const_tags: List[str] = []
        class_names: List[str] = []
        for statement in method.statements:
            if isinstance(statement, AssignmentStatement):
                rhs = statement.rhs
                if isinstance(rhs, NewExpr):
                    add_instance(("site", statement.label, rhs.allocated.class_name))
                elif isinstance(rhs, LiteralExpr):
                    tag = _literal_tag(rhs.value)
                    if tag is not None and tag not in const_tags:
                        const_tags.append(tag)
                elif isinstance(rhs, ConstClassExpr):
                    if rhs.referenced.class_name not in class_names:
                        class_names.append(rhs.referenced.class_name)
                elif isinstance(rhs, ExceptionExpr):
                    add_instance(("exc", statement.label))
                elif isinstance(rhs, AccessExpr):
                    fields.add(rhs.field_name)
                elif isinstance(rhs, IndexingExpr):
                    fields.add(ARRAY_FIELD)
                elif isinstance(rhs, StaticFieldAccessExpr):
                    globals_.add(rhs.global_slot)
                if statement.rhs.kind == "NullExpr":
                    has_null = True
                access = statement.lhs_access
                if isinstance(access, AccessExpr):
                    fields.add(access.field_name)
                    stored_fields.add(access.field_name)
                elif isinstance(access, IndexingExpr):
                    fields.add(ARRAY_FIELD)
                    stored_fields.add(ARRAY_FIELD)
                elif isinstance(access, StaticFieldAccessExpr):
                    globals_.add(access.global_slot)

            callee = None
            needs_call_instance = False
            if isinstance(statement, CallStatement):
                callee = statement.callee
                needs_call_instance = (
                    statement.result is not None
                    and statement.result in object_var_set
                )
            elif isinstance(statement, AssignmentStatement) and isinstance(
                statement.rhs, CallRhs
            ):
                callee = statement.rhs.callee
                needs_call_instance = statement.lhs in object_var_set
            if callee is not None:
                footprint = footprints.get(callee)
                if footprint is not None:
                    globals_.update(footprint.globals_touched)
                    fields.update(footprint.fields_written)
                    stored_fields.update(footprint.fields_written)
                    needs_call_instance = needs_call_instance or bool(
                        footprint.fields_written or footprint.globals_touched
                    )
                if needs_call_instance:
                    add_instance(("call", statement.label))

        if has_null:
            add_instance(("null",))
        for tag in const_tags:
            add_instance(("const", tag))
        for class_name in class_names:
            add_instance(("class", class_name))
        for global_name in sorted(globals_):
            add_instance(("global", global_name))
        # Symbolic entry values of parameter-object fields: these let a
        # callee's double-layer reads (``x := arg.f``) produce facts the
        # summary can hand back to the caller.
        for index, parameter in enumerate(method.parameters):
            if parameter.type.is_object:
                for field in sorted(fields):
                    add_instance(("pfield", index, field))

        self.instances: Tuple[Instance, ...] = tuple(instances)
        self.instance_id: Dict[Instance, int] = {
            instance: index for index, instance in enumerate(self.instances)
        }
        self.fields: Tuple[str, ...] = tuple(sorted(fields))
        self.globals: Tuple[str, ...] = tuple(sorted(globals_))

        slots: List[Slot] = [("var", name) for name in self.object_vars]
        slots.extend(("global", name) for name in self.globals)
        heap_eligible = [
            index
            for index, instance in enumerate(self.instances)
            # Heap cells exist for anything that can be dereferenced;
            # constants and class literals have no analyzable fields.
            # pfield instances are dereferenceable too: a store through
            # ``x := p.f; x.g := v`` lands in a pfield object's cell
            # (soundness -- caught by the concrete interpreter).
            if instance[0] in ("site", "param", "global", "call", "exc", "pfield")
        ]
        stored = tuple(sorted(stored_fields))
        for instance_index in heap_eligible:
            # Parameter objects carry symbolic entry values for every
            # referenced field (reads need seeds); everything else only
            # needs cells a store can reach.
            cell_fields = (
                self.fields
                if self.instances[instance_index][0] == "param"
                else stored
            )
            for field in cell_fields:
                slots.append(("heap", instance_index, field))
        slots.append(("ret",))
        self.slots: Tuple[Slot, ...] = tuple(slots)
        self.slot_id: Dict[Slot, int] = {
            slot: index for index, slot in enumerate(self.slots)
        }

        self._site_by_label: Dict[str, int] = {
            instance[1]: index
            for index, instance in enumerate(self.instances)
            if instance[0] == "site"
        }
        self._call_by_label: Dict[str, int] = {
            instance[1]: index
            for index, instance in enumerate(self.instances)
            if instance[0] == "call"
        }
        self._exc_by_label: Dict[str, int] = {
            instance[1]: index
            for index, instance in enumerate(self.instances)
            if instance[0] == "exc"
        }

    # -- sizes ---------------------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of slots in the pre-determined pool."""
        return len(self.slots)

    @property
    def instance_count(self) -> int:
        """Number of instances in the pre-determined pool."""
        return len(self.instances)

    @property
    def fact_universe(self) -> int:
        """Number of representable facts (matrix cells)."""
        return self.slot_count * self.instance_count

    # -- encoding ------------------------------------------------------------

    def encode(self, slot: int, instance: int) -> int:
        """Pack (slot, instance) ids into one fact integer."""
        return slot * self.instance_count + instance

    def decode(self, fact: int) -> Tuple[int, int]:
        """Unpack a fact integer into (slot, instance) ids."""
        return divmod(fact, self.instance_count)

    def decode_named(self, fact: int) -> Tuple[Slot, Instance]:
        """Unpack a fact into its named slot/instance tuples."""
        slot, instance = self.decode(fact)
        return self.slots[slot], self.instances[instance]

    # -- frequently used lookups ----------------------------------------------

    def var_slot(self, name: str) -> Optional[int]:
        """Slot id of an object variable, or None if untracked."""
        return self.slot_id.get(("var", name))

    def global_slot(self, name: str) -> Optional[int]:
        """Slot id of a global (static field), or None."""
        return self.slot_id.get(("global", name))

    def heap_slot(self, instance: int, field: str) -> Optional[int]:
        """Slot id of a heap cell (instance, field), or None."""
        return self.slot_id.get(("heap", instance, field))

    def return_slot(self) -> int:
        """Slot id of the method's return value."""
        return self.slot_id[("ret",)]

    def site_instance(self, label: str) -> int:
        """Instance id of the allocation at ``label``."""
        return self._site_by_label[label]

    def call_instance(self, label: str) -> Optional[int]:
        """Opaque result instance of the call at ``label``."""
        return self._call_by_label.get(label)

    def exc_instance(self, label: str) -> int:
        """Exception instance of the catch head at ``label``."""
        return self._exc_by_label[label]

    def param_instance(self, index: int) -> Optional[int]:
        """Symbolic instance of the index-th object parameter."""
        return self.instance_id.get(("param", index))

    def pfield_instance(self, index: int, field: str) -> Optional[int]:
        """Symbolic entry value of a parameter's field."""
        return self.instance_id.get(("pfield", index, field))

    def global_instance(self, name: str) -> Optional[int]:
        """Symbolic entry-value instance of a global."""
        return self.instance_id.get(("global", name))

    def null_instance(self) -> Optional[int]:
        """Instance id of the null constant, if pooled."""
        return self.instance_id.get(("null",))

    def const_instance(self, tag: str) -> Optional[int]:
        """Instance id of a literal constant pool entry."""
        return self.instance_id.get(("const", tag))

    def class_instance(self, name: str) -> Optional[int]:
        """Instance id of a class literal, if pooled."""
        return self.instance_id.get(("class", name))

    # -- entry facts -----------------------------------------------------------

    def entry_facts(self) -> FrozenSet[int]:
        """Initial facts at the method entry node.

        Object parameters point to their symbolic caller instances and
        every pooled global points to its symbolic entry value.
        """
        facts: Set[int] = set()
        for index, parameter in enumerate(self.method.parameters):
            instance = self.param_instance(index)
            if instance is None:
                continue
            slot = self.var_slot(parameter.name)
            if slot is not None:
                facts.add(self.encode(slot, instance))
            for field in self.fields:
                heap = self.heap_slot(instance, field)
                pfield = self.pfield_instance(index, field)
                if heap is not None and pfield is not None:
                    facts.add(self.encode(heap, pfield))
        for name in self.globals:
            slot = self.global_slot(name)
            instance = self.global_instance(name)
            if slot is not None and instance is not None:
                facts.add(self.encode(slot, instance))
        return frozenset(facts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FactSpace({self.method.signature}, {self.slot_count} slots x "
            f"{self.instance_count} instances)"
        )
