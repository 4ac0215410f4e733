"""Self-tests for the six lint.py rules and the suppression meta-rule.

`lint_file(rel, text)` is a pure function, so each rule is tested
directly with an inline snippet: one violating input that must produce
the rule's finding, and one allowed input (either the whitelisted file
or the sanctioned idiom) that must stay clean.
"""

import importlib.util
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

_spec = importlib.util.spec_from_file_location(
    "pa_lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def msgs(rel, text):
    return [m for _, m in lint.lint_file(rel, text)]


class RawSynchronization(unittest.TestCase):
    def test_raw_mutex_outside_check_is_flagged(self):
        out = msgs("src/common/pool.cpp", "std::mutex m_;\n")
        self.assertTrue(any("raw std::mutex" in m for m in out), out)

    def test_lock_guard_is_flagged(self):
        out = msgs("src/common/pool.cpp",
                   "std::lock_guard<std::mutex> g(m_);\n")
        self.assertTrue(any("raw std::" in m for m in out), out)

    def test_wrapper_implementation_is_allowed(self):
        self.assertEqual(
            msgs("include/pa/check/mutex.h", "std::mutex m_;\n"), [])


class Nondeterminism(unittest.TestCase):
    def test_random_device_is_flagged(self):
        out = msgs("src/sim/engine.cpp",
                   "auto seed = std::random_device{}();\n")
        self.assertTrue(any("nondeterminism source" in m for m in out), out)

    def test_system_clock_is_flagged(self):
        out = msgs("src/sim/engine.cpp",
                   "auto t = std::chrono::system_clock::now();\n")
        self.assertTrue(any("nondeterminism source" in m for m in out), out)

    def test_rng_header_is_allowed(self):
        self.assertEqual(
            msgs("include/pa/common/rng.h", "std::random_device rd;\n"), [])


class SocketHygiene(unittest.TestCase):
    def test_raw_syscall_outside_transport_is_flagged(self):
        out = msgs("src/net/flusher.cpp",
                   "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n")
        self.assertTrue(any("raw socket syscall" in m for m in out), out)

    def test_socket_header_is_flagged(self):
        out = msgs("src/core/scheduler.cpp", "#include <sys/socket.h>\n")
        self.assertTrue(any("socket header" in m for m in out), out)

    def test_tcp_transport_is_allowed(self):
        self.assertEqual(
            msgs("src/net/tcp_transport.cpp",
                 "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n"), [])

    def test_method_definition_does_not_match(self):
        # `Transport::send(` is a member definition, not a syscall.
        self.assertEqual(
            msgs("src/net/flusher.cpp",
                 "bool Transport::send(Message m) { return true; }\n"), [])


class StateMachineDiscipline(unittest.TestCase):
    def test_direct_state_write_is_flagged(self):
        out = msgs("src/core/scheduler.cpp",
                   "state_ = UnitState::kDone;\n")
        self.assertTrue(
            any("direct write to `state_`" in m for m in out), out)

    def test_machine_replacement_without_marker_is_flagged(self):
        out = msgs("src/core/scheduler.cpp",
                   "sm_ = UnitStateMachine(UnitState::kNew);\n")
        self.assertTrue(
            any("lint:allow-state-reset" in m for m in out), out)

    def test_machine_replacement_with_marker_is_allowed(self):
        text = ("// lint:allow-state-reset: journal replay rebuilds the\n"
                "// machine from the recovered state.\n"
                "sm_ = UnitStateMachine(UnitState::kNew);\n")
        self.assertEqual(msgs("src/core/scheduler.cpp", text), [])

    def test_state_machine_header_is_allowed(self):
        self.assertEqual(
            msgs("include/pa/core/state_machine.h",
                 "state_ = next;\n"), [])


class CallbackShape(unittest.TestCase):
    DIRTY = (
        "void S::wire() {\n"
        "  runtime_->callbacks.on_unit_done = [this](UnitId u) {\n"
        "    workload_.complete(u);\n"
        "  };\n"
        "}\n"
    )
    CLEAN = (
        "void S::wire() {\n"
        "  runtime_->callbacks.on_unit_done = [this](UnitId u) {\n"
        "    ctrl_->post(cmd::Command{cmd::CmdUnitDone{u}});\n"
        "  };\n"
        "}\n"
    )

    def test_state_touch_and_missing_post_are_flagged(self):
        out = msgs("src/core/service.cpp", self.DIRTY)
        self.assertTrue(
            any("touches service state `workload_`" in m for m in out), out)
        self.assertTrue(
            any("never posts a command" in m for m in out), out)

    def test_posting_callback_is_allowed(self):
        self.assertEqual(msgs("src/core/service.cpp", self.CLEAN), [])

    def test_rule_only_applies_to_core(self):
        self.assertEqual(msgs("src/net/manager.cpp", self.DIRTY), [])

    def test_unit_launch_completion_is_checked(self):
        dirty = (
            "void S::launch(const std::string& id) {\n"
            "  UnitLaunch launch{id, &d, [this, id](bool ok) {\n"
            "    units_.erase(id);\n"
            "  }};\n"
            "}\n"
        )
        out = msgs("src/core/service.cpp", dirty)
        self.assertTrue(
            any("touches service state `units_`" in m for m in out), out)
        clean = dirty.replace(
            "units_.erase(id);",
            "ctrl_->post(cmd::Command{cmd::CmdUnitDone{id, ok}});")
        self.assertEqual(msgs("src/core/service.cpp", clean), [])


class ShardConfinement(unittest.TestCase):
    def test_service_shard_reference_outside_layer_is_flagged(self):
        out = msgs("src/engines/mapreduce.cpp",
                   "ServiceShard* home = facade.shard(0);\n")
        self.assertTrue(
            any("cross-shard access" in m for m in out), out)

    def test_post_forward_call_outside_layer_is_flagged(self):
        out = msgs("tests/core/test_scheduler.cpp",
                   "ctrl.post_forward(std::move(envelope));\n")
        self.assertTrue(
            any("cross-shard access" in m for m in out), out)

    def test_sharding_layer_itself_is_allowed(self):
        self.assertEqual(
            msgs("src/core/service_shard.cpp",
                 "peers_[t]->ctrl().post_forward(std::move(cmd));\n"), [])

    def test_facade_is_allowed(self):
        self.assertEqual(
            msgs("src/core/pilot_compute_service.cpp",
                 "std::vector<std::unique_ptr<ServiceShard>> shards_;\n"),
            [])


class StoreConfinement(unittest.TestCase):
    def test_transport_include_is_flagged(self):
        out = msgs("src/store/shard.cpp",
                   '#include "pa/net/transport.h"\n')
        self.assertTrue(
            any("transport-facing include" in m for m in out), out)

    def test_connection_reference_is_flagged(self):
        out = msgs("include/pa/store/directory.h",
                   "net::Connection* conn_ = nullptr;\n")
        self.assertTrue(
            any("net::Connection referenced in pa::store" in m
                for m in out), out)

    def test_accept_handler_reference_is_flagged(self):
        out = msgs("src/store/agent.cpp",
                   "net::AcceptHandler on_peer_;\n")
        self.assertTrue(
            any("net::AcceptHandler referenced in pa::store" in m
                for m in out), out)

    def test_connection_handlers_reference_is_flagged(self):
        out = msgs("include/pa/store/agent.h",
                   "net::ConnectionHandlers peer_handlers();\n")
        self.assertTrue(
            any("net::ConnectionHandlers referenced in pa::store" in m
                for m in out), out)

    def test_message_include_is_allowed(self):
        self.assertEqual(
            msgs("src/store/shard.cpp",
                 '#include "pa/net/message.h"\n'), [])

    def test_peer_hub_in_rt_is_allowed(self):
        # The rt layer owns peer connections; rule 6 scopes to pa::store.
        self.assertEqual(
            msgs("src/rt/remote_runtime.cpp",
                 "net::AcceptHandler handler = hub_accept();\n"), [])


class SuppressionMetaRule(unittest.TestCase):
    def test_bare_nolint_is_flagged(self):
        out = msgs("src/common/table.cpp", "int x = f();  // NOLINT\n")
        self.assertTrue(
            any("NOLINT without justification" in m for m in out), out)

    def test_justified_nolint_is_allowed(self):
        self.assertEqual(
            msgs("src/common/table.cpp",
                 "int x = f();  // NOLINT(bugprone-foo): f() is audited\n"),
            [])

    def test_bare_tsa_suppression_is_flagged(self):
        out = msgs("src/common/table.cpp",
                   "void f() PA_NO_THREAD_SAFETY_ANALYSIS;\n")
        self.assertTrue(
            any("PA_NO_THREAD_SAFETY_ANALYSIS without" in m for m in out),
            out)

    def test_justified_tsa_suppression_is_allowed(self):
        text = ("// PA_NO_THREAD_SAFETY_ANALYSIS: lock identity proven by\n"
                "// the caller; annotations cannot express it.\n"
                "void f() PA_NO_THREAD_SAFETY_ANALYSIS;\n")
        self.assertEqual(msgs("src/common/table.cpp", text), [])


if __name__ == "__main__":
    unittest.main()
