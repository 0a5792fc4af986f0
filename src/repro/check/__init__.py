"""Self-hosted static invariant checker (``repro check``).

The repo's load-bearing promises — serial == process-pool bit-identity,
scalar == batch engine equality, cache keys that capture exactly the
semantic knobs — are enforced dynamically by the test
suite, but only on the paths a test happens to exercise.  This package
enforces the *source-level contracts* behind those promises on every
file, every commit:

* **DET0xx** — determinism lints: no wall-clock reads, no module-level
  ``random.*`` draws, no unseeded RNG construction, no iteration over
  unordered sets inside the result-producing packages (``mapping/``,
  ``dse/``, ``explore/``).
* **RACE0xx** — guarded-by analysis: shared mutable attributes carry a
  ``# guarded-by: <lock>`` annotation and are only mutated inside a
  ``with self.<lock>`` block; the lock-acquisition graph is checked
  for order inversions.
* **CACHE0xx** — cache-token purity: every field of a key-carrying
  config class appears in its token method or in an explicit
  ``NON_SEMANTIC`` allowlist.
* **DOC0xx** — drift checks: every ``REPRO_*`` environment variable
  and CLI flag read by the code is documented in the README.

Findings are :class:`~repro.check.findings.Finding` records with
stable error codes; deliberate exceptions live in a committed
``check_baseline.json`` with a one-line justification each (see
:mod:`repro.check.findings`).  The framework runs on its own source:
``src/repro/check`` is part of the scanned tree.
"""

from __future__ import annotations

# Importing the rule modules registers their rules.
from . import rules_cache, rules_det, rules_doc, rules_race  # noqa: F401
from .context import CheckContext, SourceFile
from .findings import Baseline, BaselineEntry, Finding
from .registry import Rule, all_rules, get_rule, rule
from .runner import CheckReport, render_report, run_checks

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CheckContext",
    "CheckReport",
    "Finding",
    "Rule",
    "SourceFile",
    "all_rules",
    "get_rule",
    "render_report",
    "rule",
    "run_checks",
]
