"""GDroid configuration: optimization toggles and tuning parameters."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.gpu.spec import CostTable, DEFAULT_COSTS, GPUSpec, TESLA_P40


@dataclass(frozen=True)
class TuningParameters:
    """Manually tuned execution parameters (paper Section V).

    "Empirically 4-5 thread-blocks/SM achieves optimal GPU utilization.
    When the total number of methods is much larger than the number of
    SM, we assign multiple methods (usually 3-4) to one block."
    """

    methods_per_block: int = 4
    blocks_per_sm: int = 4

    def __post_init__(self) -> None:
        if self.methods_per_block < 1:
            raise ValueError("methods_per_block must be >= 1")
        if self.blocks_per_sm < 1:
            raise ValueError("blocks_per_sm must be >= 1")


@dataclass(frozen=True)
class GDroidConfig:
    """One GPU implementation variant.

    With all three optimizations off this is exactly the paper's
    *plain* implementation (Alg. 2); with all on it is full GDroid
    (Alg. 3).  Each optimization is independently toggleable so the
    cumulative evaluation (Figs. 8/9/11/12) and single-optimization
    ablations can be expressed with the same engine.
    """

    #: MAT -- matrix-based data structure for the data-facts.
    use_mat: bool = False
    #: GRP -- memory-access-pattern node grouping + partial sort.
    use_grp: bool = False
    #: MER -- worklist merging (head-list processing, tail postponed).
    use_mer: bool = False
    tuning: TuningParameters = field(default_factory=TuningParameters)
    spec: GPUSpec = TESLA_P40
    costs: CostTable = DEFAULT_COSTS

    # -- canonical variants -----------------------------------------------------

    @classmethod
    def plain(cls, **kwargs) -> "GDroidConfig":
        """The plain GPU implementation (paper Alg. 2)."""
        return cls(use_mat=False, use_grp=False, use_mer=False, **kwargs)

    @classmethod
    def mat_only(cls, **kwargs) -> "GDroidConfig":
        """Only the matrix-based data structure enabled."""
        return cls(use_mat=True, use_grp=False, use_mer=False, **kwargs)

    @classmethod
    def mat_grp(cls, **kwargs) -> "GDroidConfig":
        """MAT plus access-pattern node grouping."""
        return cls(use_mat=True, use_grp=True, use_mer=False, **kwargs)

    @classmethod
    def all_optimizations(cls, **kwargs) -> "GDroidConfig":
        """Full GDroid (paper Alg. 3): MAT + GRP + MER."""
        return cls(use_mat=True, use_grp=True, use_mer=True, **kwargs)

    @property
    def name(self) -> str:
        """Variable name of a register index."""
        if not (self.use_mat or self.use_grp or self.use_mer):
            return "plain"
        parts = []
        if self.use_mat:
            parts.append("MAT")
        if self.use_grp:
            parts.append("GRP")
        if self.use_mer:
            parts.append("MER")
        return "+".join(parts)

    def with_tuning(self, **kwargs) -> "GDroidConfig":
        """Copy with selected tuning parameters replaced."""
        return replace(self, tuning=replace(self.tuning, **kwargs))
