"""pa_analyze: whole-program invariant analyzer for the pilot-abstraction
repository.

tools/lint.py enforces *per-file* disciplines with per-line regexes; the
three passes here check invariants that span files — the things a reviewer
has to hold in their head across the whole tree:

  lock-order   every `check::MutexLock` acquisition site, the rank its
               mutex declares, and the locks held around it form a global
               acquisition graph; any edge that does not strictly increase
               declared ranks is a potential deadlock on *some* path,
               executed or not — strictly stronger than the runtime
               lock-rank validator, which only sees executed paths. Also
               regenerates the DESIGN.md lock table and fails on drift.

  commands     every variant member of `core::cmd::Command` has an
               apply-side handler, every handler handles a real variant
               member, every command is actually posted somewhere, and
               every runtime callback body in src/core is nothing but
               wait-free `ctrl_->post(...)` statements (subsumes and
               deepens lint.py rule 5).

  metrics      every metric-name string passed to the `pa::obs` registry
               in the library (include/ + src/) must appear in the
               docs/METRICS.md manifest with the same instrument kind;
               unknown names, typo'd names (edit distance 1 from a known
               series), kind forks, and stale manifest rows all fail.

Every pass takes a repository root, so the golden fixtures under
tests/tools/fixtures/ can run the identical code over miniature trees.
Exit status 0 = clean, 1 = findings (one per line: path:line: [pass] msg).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Finding:
    """One analyzer finding, printable as path:line: [pass] message."""

    path: str  # repo-relative, posix
    line: int
    pass_name: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.pass_name}] {self.message}"


PASS_NAMES = ("lock-order", "commands", "metrics")
