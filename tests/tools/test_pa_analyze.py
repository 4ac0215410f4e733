"""Golden-fixture tests for the three pa_analyze passes.

Each fixture under fixtures/ is a miniature repository tree (its own
include/, src/, docs/) analyzed as a root of its own, so exactly the
code that gates CI runs here. Every pass gets one clean fixture that
must produce zero findings and one seeded-violation fixture it must
flag: a rank inversion, an unhandled command, and a typo'd metric name.
"""

import unittest
from pathlib import Path

from tools.pa_analyze import commands, lock_order, metrics
from tools.pa_analyze.source import Index

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_pass(pass_mod, fixture):
    return pass_mod.run(Index(FIXTURES / fixture))


def messages(findings):
    return [f.message for f in findings]


class LockOrderPass(unittest.TestCase):
    def test_clean_fixture_has_no_findings(self):
        # Exercises correct nesting, unlock/relock, a lambda barrier, a
        # PA_REQUIRES entry-held body, and a justified suppression.
        self.assertEqual(run_pass(lock_order, "lock_clean"), [])

    def test_rank_inversion_is_flagged(self):
        findings = run_pass(lock_order, "lock_inversion")
        msgs = messages(findings)
        self.assertEqual(len(findings), 3, msgs)
        inversions = [f for f in findings if "inversion" in f.message]
        ties = [f for f in findings if "tie" in f.message]
        self.assertEqual(len(inversions), 2, msgs)
        self.assertEqual(len(ties), 1, msgs)
        # One inversion comes from lexical nesting, the other from a
        # PA_REQUIRES-declared entry-held lock.
        self.assertEqual(sorted(f.line for f in inversions), [7, 17])
        self.assertEqual(ties[0].line, 12)
        for f in findings:
            self.assertEqual(f.path, "src/w/widget.cpp")

    def test_emitted_table_lists_every_rank(self):
        index = Index(FIXTURES / "lock_clean")
        table = lock_order.emit_lock_table(index)
        for needle in ("kService", "kJournal", "kLeaf", "`w::table`",
                       "`w::stats`"):
            self.assertIn(needle, table)

    def test_design_drift_is_flagged(self):
        # The fixture's DESIGN.md was generated; a hand-edit must fail.
        index = Index(FIXTURES / "lock_clean")
        design = (FIXTURES / "lock_clean" / "DESIGN.md").read_text()
        self.assertEqual(run_pass(lock_order, "lock_clean"), [])
        try:
            (FIXTURES / "lock_clean" / "DESIGN.md").write_text(
                design.replace("`w::stats`", "`w::stale-name`"))
            findings = run_pass(lock_order, "lock_clean")
            self.assertTrue(
                any(f.path == "DESIGN.md" and "drifted" in f.message
                    for f in findings), findings)
        finally:
            (FIXTURES / "lock_clean" / "DESIGN.md").write_text(design)


class CommandsPass(unittest.TestCase):
    def test_clean_fixture_has_no_findings(self):
        self.assertEqual(run_pass(commands, "commands_clean"), [])

    def test_unhandled_command_is_flagged(self):
        findings = run_pass(commands, "commands_unhandled")
        msgs = messages(findings)
        self.assertTrue(
            any("CmdDrain has no apply-thread handler" in m for m in msgs),
            msgs)

    def test_dirty_callback_body_is_flagged(self):
        findings = run_pass(commands, "commands_unhandled")
        msgs = messages(findings)
        self.assertTrue(
            any("not the wait-free post shape" in m for m in msgs), msgs)

    def test_forward_envelope_clean_fixture_has_no_findings(self):
        # Envelope carries target_shard + hops; handler re-dispatches
        # through apply_command.
        self.assertEqual(run_pass(commands, "commands_forward_clean"), [])

    def test_missing_hop_cap_is_flagged(self):
        msgs = messages(run_pass(commands, "commands_forward_bad"))
        self.assertTrue(
            any("lacks the `hops` field" in m for m in msgs), msgs)

    def test_forward_handler_bypassing_dispatch_is_flagged(self):
        msgs = messages(run_pass(commands, "commands_forward_bad"))
        self.assertTrue(
            any("does not re-dispatch" in m for m in msgs), msgs)


class MetricsPass(unittest.TestCase):
    def test_clean_fixture_has_no_findings(self):
        # Includes a dynamic `prefix_ + "hits"` site resolved against a
        # `svc.<shard>.hits` manifest row.
        self.assertEqual(run_pass(metrics, "metrics_clean"), [])

    def test_typod_metric_is_flagged(self):
        findings = run_pass(metrics, "metrics_typo")
        msgs = messages(findings)
        self.assertTrue(
            any("typo" in m and "svc.reqests" in m for m in msgs), msgs)
        # The forked row is also stale from the manifest's side.
        self.assertTrue(any("stale row" in m for m in msgs), msgs)


if __name__ == "__main__":
    unittest.main()
