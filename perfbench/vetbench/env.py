"""Where the benchmark runs: the checkout, its sources, its scratch space."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

#: The benchmark package lives at ``<checkout>/perfbench/vetbench``.
BENCH_DIR = Path(__file__).resolve().parent.parent


class CheckoutError(RuntimeError):
    """The directory the benchmark runs from holds no program to measure."""


def checkout_root() -> Path:
    """The checkout the benchmark measures: the current directory.

    The program is imported from ``<cwd>/src`` and nowhere else, so a
    directory that holds only the benchmark fails loudly instead of
    measuring some other copy of ``repro``.
    """
    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no program sources at {root / 'src' / 'repro'}: run the "
            "benchmark from the root of a checkout"
        )
    return root


def import_program(root: Path) -> None:
    """Put ``<root>/src`` first on ``sys.path`` and check ``repro`` comes from it."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro

    origin = Path(repro.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise CheckoutError(f"repro imported from {origin}, not from {src}")


def scratch_dir(root: Path) -> Path:
    """Benchmark-owned scratch space inside the checkout (git-ignored)."""
    path = root / ".perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def source_revision(root: Path) -> str:
    """Git commit of the checkout, else a digest of ``src/``.

    The benchmark may run from an exported tree with no ``.git``; the
    source digest still tells two runs of different code apart.
    """
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]

