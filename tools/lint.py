#!/usr/bin/env python3
"""Project-specific lints for the pilot-abstraction repository.

Five disciplines, each enforced mechanically because each has burned us
(or real middleware like it) before:

 1. Synchronization goes through pa::check. Raw std::mutex /
    std::lock_guard / std::unique_lock / std::scoped_lock /
    std::condition_variable outside include/pa/check + src/check bypass
    both the clang thread-safety annotations and the runtime lock-rank
    validator, so a single raw site silently re-opens the whole class of
    ordering deadlocks the wrappers exist to catch.

 2. Determinism. Simulation results must replay bit-identically, so wall
    clocks and nondeterministic seeds are confined to two approved files
    (time_utils.h for pa::wall_seconds, rng.h for the seeded SplitMix64).
    std::random_device, rand()/srand(), and system_clock/high_resolution
    _clock reads anywhere else break replay.

 3. Socket hygiene. Raw socket/poll syscalls live in exactly one file,
    src/net/tcp_transport.cpp (plus the headers that declare nothing but
    types). Everything else goes through pa::net::Transport, so there is
    one place to audit fd lifetimes, EINTR handling, and SIGPIPE
    suppression — and the sandbox/port-availability probe stays in one
    translation unit.

 4. Validated state transitions. Pilot/unit lifecycle state changes must
    flow through StateMachine::transition so the transition table (and the
    journal observers hanging off it) see every change. Direct writes to
    `state_` outside state_machine.h, or wholesale machine replacement
    without an explicit `lint:allow-state-reset` justification, bypass
    validation and silently desynchronize the write-ahead journal.

 5. Callbacks post commands. Runtime callbacks (pilot lifecycle, unit
    completion, stage-in) fire on substrate threads — a thread pool
    worker, the network receive loop, the simulation driver. Service
    state is owned by the control-plane apply thread, so a callback body
    that touches it races by construction. The only legal callback shape
    in src/core is a wait-free `ctrl_->post(<command>)`; middleware
    logic happens when the apply thread handles the command.

 5b. Cross-shard traffic stays inside the sharding layer. The sharded
    control plane's invariant is that a shard's state is only ever
    touched by its own apply thread, and the only traffic between shards
    is the PENDING-unit hand-over, which the shard engine posts with
    post_forward() (it skips backpressure, so a peer apply thread never
    blocks on another shard's bound). Code outside that layer that names
    a ServiceShard or calls post_forward() has reached around the facade
    and can deliver a command to a shard that does not own the entity.

 6. Store transport confinement. The data plane (pa::store) speaks
    net::Message and paces itself with the BatchFlusher, but never sees a
    Connection, a Transport, a listener handler type, or a concrete
    transport header — egress goes through the ObjSender installed by
    rt::RemoteRuntime, ingress through replies returned to
    rt::AgentEndpoint. The peer data plane raises the temptation: agents
    now dial each other, but those connections (and the AcceptHandler /
    ConnectionHandlers that accept them) belong to rt::AgentEndpoint's
    peer hub, never to the store. One owner for every socket (rule 3)
    only holds if the layers above it can't reach around.

Plus one meta-rule: every suppression (NOLINT or
PA_NO_THREAD_SAFETY_ANALYSIS) must carry a justification, so suppressions
stay auditable.

Exit status 0 = clean, 1 = findings (one per line: path:line: message).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories scanned (library + tests + examples; build trees excluded).
SCAN_DIRS = ["include", "src", "tests", "examples", "tools"]
CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

# --- rule 1: raw synchronization primitives ---------------------------------
SYNC_ALLOWED = {
    "include/pa/check/mutex.h",
    "include/pa/check/thread_safety.h",
    "src/check/mutex.cpp",
}
RAW_SYNC = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b"
)

# --- rule 2: nondeterminism sources ------------------------------------------
TIME_ALLOWED = {
    "include/pa/common/time_utils.h",
    "include/pa/common/rng.h",
}
NONDETERMINISM = re.compile(
    r"\bstd::random_device\b|\brand\s*\(\s*\)|\bsrand\s*\(|"
    r"\bsystem_clock\b|\bhigh_resolution_clock\b"
)

# --- rule 3: socket syscalls confined to the TCP transport -------------------
SOCKET_ALLOWED = {
    "src/net/tcp_transport.cpp",
}
# Global-namespace-qualified syscall spelling (`::send(fd, ...)`), the
# idiom the transport uses; `Class::send(` definitions don't match.
SOCKET_SYSCALLS = re.compile(
    r"(?<![\w>])::(socket|bind|listen|accept4?|connect|recv|recvfrom|"
    r"send|sendto|sendmsg|recvmsg|sendmmsg|recvmmsg|writev|readv|sendfile|"
    r"poll|ppoll|epoll_create1?|"
    r"epoll_ctl|epoll_wait|setsockopt|getsockopt|getsockname|getpeername|"
    r"inet_pton|inet_ntop)\s*\("
)
SOCKET_HEADERS = re.compile(
    r'#\s*include\s*<(sys/socket\.h|netinet/[^>]+|arpa/inet\.h|poll\.h|'
    r'sys/epoll\.h|sys/uio\.h|sys/sendfile\.h)>'
)

# --- rule 6: store stays behind the message boundary -------------------------
STORE_SCOPE = ("include/pa/store/", "src/store/")
STORE_NET_ALLOWED = {"pa/net/message.h", "pa/net/flusher.h"}
STORE_NET_INCLUDE = re.compile(r'#\s*include\s*"(pa/net/[^"]+)"')
STORE_FORBIDDEN_NET = re.compile(
    r"\bnet::(Transport|Connection|ConnectionPtr|TcpTransport|"
    r"InProcTransport|FrameDecoder|AcceptHandler|ConnectionHandlers)\b"
)

# --- rule 4: state-machine bypasses ------------------------------------------
SM_FILE = "include/pa/core/state_machine.h"
STATE_WRITE = re.compile(r"\bstate_\s*=[^=]")
SM_REPLACE = re.compile(r"=\s*(UnitStateMachine|PilotStateMachine)\s*\(")
SM_RESET_MARKER = "lint:allow-state-reset"

# --- rule 5: runtime callbacks post commands, never touch state --------------
CALLBACK_SCOPE = "src/core/"
CALLBACK_TRIGGERS = re.compile(
    r"callbacks\.on_\w+\s*=|runtime_\.execute_unit\s*\(|"
    r"\bUnitLaunch\s*\w*\s*\{|data_->stage_to_site\s*\("
)
CALLBACK_FORBIDDEN = re.compile(
    r"\b(workload_|units_|pilots_|journal_|tracer_|obs_metrics_|model_|"
    r"delta_|dirty_pilots_|dirty_units_|unit_observers_|snapshot_mutex_|"
    r"run_schedule_cycle|publish_snapshot|finalize_unit_apply|"
    r"dispatch_unit_apply|execute_unit_apply)\b"
)
CALLBACK_MUST_POST = "->post("

# --- rule 5b: cross-shard access stays inside the sharding layer -------------
SHARD_ALLOWED = {
    "include/pa/core/control_plane.h",
    "include/pa/core/pilot_compute_service.h",
    "include/pa/core/service_shard.h",
    "src/core/pilot_compute_service.cpp",
    "src/core/service_shard.cpp",
}
SHARD_FORBIDDEN = re.compile(r"\bServiceShard\b|\bpost_forward\s*\(")


def lambda_body(text: str, start: int) -> tuple[int, int] | None:
    """(open, close) indices of the first brace-balanced block after
    `start` that is preceded by a nearby lambda introducer `[`. None when
    the trigger takes no lambda (nullptr, named function)."""
    intro = text.find("[", start)
    if intro == -1 or intro - start > 200:
        return None
    open_idx = text.find("{", intro)
    if open_idx == -1:
        return None
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return (open_idx, i)
    return None


def lint_callback_regions(rel: str, text: str) -> list[tuple[int, str]]:
    if not rel.startswith(CALLBACK_SCOPE) or not rel.endswith(".cpp"):
        return []
    findings: list[tuple[int, str]] = []
    for m in CALLBACK_TRIGGERS.finditer(text):
        region = lambda_body(text, m.end())
        if region is None:
            continue
        body = text[region[0]:region[1] + 1]
        lineno = text.count("\n", 0, m.start()) + 1
        fm = CALLBACK_FORBIDDEN.search(body)
        if fm:
            findings.append((
                lineno,
                f"runtime callback touches service state `{fm.group(1)}` — "
                f"callbacks run on substrate threads; post a command "
                f"(ctrl_->post) and let the apply thread do the work",
            ))
        if CALLBACK_MUST_POST not in body:
            findings.append((
                lineno,
                "runtime callback never posts a command — the only legal "
                "callback body is a wait-free ctrl_->post(<command>)",
            ))
    return findings


# --- meta-rule: suppressions need justification ------------------------------
NOLINT = re.compile(r"NOLINT(NEXTLINE)?\b")
NOLINT_JUSTIFIED = re.compile(r"NOLINT(NEXTLINE)?(\([^)]*\))?\s*[:]\s*\S")
NO_TSA = re.compile(r"\bPA_NO_THREAD_SAFETY_ANALYSIS\b")


def is_comment_only(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("//") or stripped.startswith("*") or \
        stripped.startswith("/*")


def nearby_comment_mentions(lines: list[str], idx: int, needle: str,
                            radius: int = 6) -> bool:
    """True when `needle` appears in a *comment* within the window. Only
    comment text counts: the flagged line itself is inside the window, so
    matching its code portion would make the rule unable to ever fire
    (the suppression macro contains the needle it must be justified by)."""
    lo = max(0, idx - radius)
    hi = min(len(lines), idx + 2)
    for i in range(lo, hi):
        parts = lines[i].split("//", 1)
        if len(parts) == 2 and needle in parts[1]:
            return True
        stripped = lines[i].lstrip()
        if stripped.startswith(("*", "/*")) and needle in stripped:
            return True
    return False


def lint_file(rel: str, text: str) -> list[tuple[int, str]]:
    findings: list[tuple[int, str]] = lint_callback_regions(rel, text)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        lineno = i + 1
        code = line.split("//", 1)[0]

        if rel not in SYNC_ALLOWED and rel != "tools/lint.py":
            m = RAW_SYNC.search(code)
            if m:
                findings.append((
                    lineno,
                    f"raw std::{m.group(1)} — use pa::check::Mutex/"
                    f"MutexLock/CondVar (see include/pa/check/mutex.h)",
                ))

        if rel not in TIME_ALLOWED and rel != "tools/lint.py":
            m = NONDETERMINISM.search(code)
            if m:
                findings.append((
                    lineno,
                    f"nondeterminism source `{m.group(0).strip()}` — use "
                    f"pa::wall_seconds (time_utils.h) or pa::Rng (rng.h)",
                ))

        if rel not in SOCKET_ALLOWED and rel != "tools/lint.py":
            m = SOCKET_SYSCALLS.search(code)
            if m:
                findings.append((
                    lineno,
                    f"raw socket syscall `::{m.group(1)}` — socket I/O is "
                    f"confined to src/net/tcp_transport.cpp; go through "
                    f"pa::net::Transport",
                ))
            m = SOCKET_HEADERS.search(code)
            if m:
                findings.append((
                    lineno,
                    f"socket header <{m.group(1)}> — socket I/O is confined "
                    f"to src/net/tcp_transport.cpp",
                ))

        if rel not in SHARD_ALLOWED and rel != "tools/lint.py":
            m = SHARD_FORBIDDEN.search(code)
            if m:
                findings.append((
                    lineno,
                    f"cross-shard access `{m.group(0).strip()}` outside the "
                    f"sharding layer — shard state belongs to its own apply "
                    f"thread; go through the PilotComputeService facade and "
                    f"let the shard engine hand units over",
                ))

        if rel.startswith(STORE_SCOPE):
            m = STORE_NET_INCLUDE.search(code)
            if m and m.group(1) not in STORE_NET_ALLOWED:
                findings.append((
                    lineno,
                    f'transport-facing include "{m.group(1)}" in pa::store — '
                    f"the store speaks net::Message only; connections belong "
                    f"to rt::RemoteRuntime / rt::AgentEndpoint",
                ))
            m = STORE_FORBIDDEN_NET.search(code)
            if m:
                findings.append((
                    lineno,
                    f"net::{m.group(1)} referenced in pa::store — egress "
                    f"goes through the attached ObjSender, ingress through "
                    f"returned replies; the store never touches a "
                    f"connection or transport",
                ))

        if rel != SM_FILE and rel != "tools/lint.py":
            if STATE_WRITE.search(code) and not is_comment_only(line):
                findings.append((
                    lineno,
                    "direct write to `state_` — lifecycle changes must go "
                    "through StateMachine::transition",
                ))
            if SM_REPLACE.search(code):
                if not nearby_comment_mentions(lines, i, SM_RESET_MARKER):
                    findings.append((
                        lineno,
                        "state machine replaced without a nearby "
                        f"`{SM_RESET_MARKER}` justification comment",
                    ))

        if rel != "tools/lint.py":
            if NOLINT.search(line) and not NOLINT_JUSTIFIED.search(line):
                findings.append((
                    lineno,
                    "NOLINT without justification — write "
                    "`NOLINT(<check>): <reason>`",
                ))
            if NO_TSA.search(code) and "#define" not in code and \
                    rel != "include/pa/check/thread_safety.h":
                if not nearby_comment_mentions(lines, i,
                                               "NO_THREAD_SAFETY_ANALYSIS"):
                    findings.append((
                        lineno,
                        "PA_NO_THREAD_SAFETY_ANALYSIS without an adjacent "
                        "justification comment naming it",
                    ))
    return findings


def main() -> int:
    failures = 0
    for d in SCAN_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in CXX_SUFFIXES:
                continue
            rel = path.relative_to(REPO).as_posix()
            if "/fixtures/" in rel:
                # Analyzer self-test trees (tests/tools/fixtures/) carry
                # seeded violations checked by tests/tools/run_tests.py.
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for lineno, message in lint_file(rel, text):
                print(f"{rel}:{lineno}: {message}")
                failures += 1
    if failures:
        print(f"\nlint: {failures} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
