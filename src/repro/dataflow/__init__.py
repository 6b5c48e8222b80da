"""Static data-flow analysis substrate.

This package implements the points-to data-fact domain, the GEN/KILL
transfer functions for the full statement/expression taxonomy, SBDA
method summaries, and the sequential worklist algorithm (the paper's
Alg. 1) that serves as the correctness oracle for every GPU variant.

Domain in one paragraph: a *data-fact* is a pair ``(slot, instance)``
meaning "this slot may point to this abstract instance".  Slots are
object-typed locals, global (static) fields, heap cells
``(instance, field)``, and the method's return slot.  Instances are
allocation sites, constants, symbolic parameter/global placeholders,
and per-call-site opaque results.  Both pools are *pre-determined* from
the method body plus its callees' summaries -- the property the MAT
optimization exploits to replace dynamic sets with a fixed bit matrix.
Every analysed node's facts are one MAT row, an int whose bit
``slot * instance_count + instance`` is set when that fact holds
(:mod:`repro.dataflow.bitset`); :class:`MethodFacts` holds the rows and
:meth:`MethodFacts.instances` reads one slot of a row.
"""

from repro.dataflow.concrete import ConcreteInterpreter, soundness_violations
from repro.dataflow.facts import FactSpace, Instance, Slot
from repro.dataflow.idfg import IDFG, MethodFacts
from repro.dataflow.ide import IdeConstantSolver
from repro.dataflow.ifds import IfdsSolver, IfdsFlow
from repro.dataflow.iterative import ConventionalIterative, reverse_post_order
from repro.dataflow.strings import StringConstantSolver
from repro.dataflow.summaries import MethodSummary, SummaryBuilder
from repro.dataflow.transfer import TransferFunctions
from repro.dataflow.worklist import SequentialWorklist, analyze_app_reference

__all__ = [
    "ConcreteInterpreter",
    "ConventionalIterative",
    "FactSpace",
    "IDFG",
    "IdeConstantSolver",
    "IfdsFlow",
    "IfdsSolver",
    "Instance",
    "MethodFacts",
    "MethodSummary",
    "SequentialWorklist",
    "StringConstantSolver",
    "Slot",
    "SummaryBuilder",
    "TransferFunctions",
    "analyze_app_reference",
    "reverse_post_order",
    "soundness_violations",
]
