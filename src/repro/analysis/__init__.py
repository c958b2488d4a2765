"""Project-invariant static analysis (``python -m repro lint``).

The repository's correctness story rests on invariants that no unit test
watches directly: seeded generators (no global random state anywhere
near a probability), cache-key purity (plan-level options must never
perturb ``freeze()`` keys), the DESIGN.md Section 7.3 scalar-reference
policy, the lock discipline of the serving counters, protocol-mediated
JSON on the wire, and docstring constants that match the code they cite.
Each of these has already cost a bug or a review cycle when broken by
hand; this package turns them into machine-checked lints.

Layering:

* :mod:`repro.analysis.engine` — file discovery, the rule registry,
  structured :class:`~repro.analysis.engine.Finding` objects,
  ``# repro: allow[rule-id]`` suppressions, and baseline files;
* :mod:`repro.analysis.rules` — the rule catalogue (see DESIGN.md
  Section 13 for the contract each rule enforces);
* :mod:`repro.analysis.cli` — the ``python -m repro lint`` front-end.
"""

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import all_rules, get_rules

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "all_rules",
    "get_rules",
    "lint_paths",
    "lint_source",
]
