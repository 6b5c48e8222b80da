"""GDroid: the GPU worklist algorithm with the three optimizations.

* :mod:`repro.core.config` -- optimization toggles (MAT / GRP / MER)
  and tuning parameters (methods per block, blocks per SM).
* :mod:`repro.core.grouping` -- the memory-access-pattern node
  classification behind GRP (3 groups vs the original 25 classes).
* :mod:`repro.core.blocks` -- layer-wise method-to-thread-block
  partitioning.
* :mod:`repro.core.compiletable` -- one app build's compile table:
  each method's CFG once, its transfer plans once per distinct set of
  callee summaries, and every block's per-node arrays.
* :mod:`repro.core.trace` -- execution-trace records shared by the
  functional runner and the cost adapters.
* :mod:`repro.core.blockexec` -- the functional block runner: executes
  the worklist dynamics (with and without MER) and records traces.
* :mod:`repro.core.plain_kernel` -- Alg. 2 cost adapter (set store,
  statement-type branching, full-worklist iterations).
* :mod:`repro.core.gdroid_kernel` -- Alg. 3 cost adapter with the
  optimizations independently toggleable.
* :mod:`repro.core.engine` -- the public analyzer: app in, IDFG plus
  modeled time out.
* :mod:`repro.core.autotune` -- the paper's future-work auto-tuner.
* :mod:`repro.core.multigpu` -- the paper's future-work multi-GPU
  partitioning model.
"""

from repro.core.config import GDroidConfig, TuningParameters
from repro.core.engine import AnalysisResult, AppWorkload, GDroid
from repro.core.grouping import (
    ACCESS_GROUP_NAMES,
    GROUP_DOUBLE_LAYER,
    GROUP_ONE_TIME,
    GROUP_SINGLE_LAYER,
)

__all__ = [
    "ACCESS_GROUP_NAMES",
    "AnalysisResult",
    "AppWorkload",
    "GDroid",
    "GDroidConfig",
    "GROUP_DOUBLE_LAYER",
    "GROUP_ONE_TIME",
    "GROUP_SINGLE_LAYER",
    "TuningParameters",
]
