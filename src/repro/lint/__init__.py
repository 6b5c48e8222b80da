"""``repro.lint``: pre-analysis static verification of app IR.

A pluggable pass suite that checks the well-formedness premises every
downstream stage silently assumes -- CFG terminator and handler
discipline, declared-type/arity consistency, def-before-use, reachable
code, call-graph resolution, manifest/lifecycle consistency, and the
fact-pool bounds sanitizer that guards the MAT bit-matrix indexing.

Entry points::

    from repro.lint import run_lint, check_app, LintError

    report = run_lint(app)        # ordered LintReport, never raises
    check_app(app)                # raises LintError on error findings

CLI: ``gdroid lint`` (see README).  Strict gates: the pipeline's
``strict`` option (``gdroid bench --strict``), which turns a rejection
into a :class:`repro.bench.harness.LintErrorRow`, or
``AppWorkload.build(app, lint_gate=True)``, which raises.  A whole-app
strict build runs its gate under :func:`gating`, which leaves the FP-001
plan audit to the build's compile table.
"""

from repro.lint.diagnostics import (
    JSON_SCHEMA_VERSION,
    RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    LintError,
    LintReport,
)
from repro.lint.context import gating
from repro.lint.runner import PASSES, check_app, run_lint

__all__ = [
    "JSON_SCHEMA_VERSION",
    "RULES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Diagnostic",
    "LintError",
    "LintReport",
    "PASSES",
    "check_app",
    "gating",
    "run_lint",
]
