"""Pass 3: command exhaustiveness and callback discipline.

The control plane admits exactly the `core::cmd::Command` variant; the
apply thread dispatches via std::visit over `apply(cmd::CmdX&)`
overloads, so a missing overload is a compile error — but a struct that
never joins the variant, a variant member nothing ever constructs, or a
handler for a retired command all compile fine and rot silently. This
pass closes the loop:

  * every `struct CmdX` in core/command.h is a member of the Command
    variant, and vice versa;
  * every variant member has an `apply(cmd::CmdX&)` definition in
    src/core (the apply-thread handler), and no handler exists for a
    non-member;
  * every command is constructed somewhere outside command.h — a
    command nobody posts is dead vocabulary;
  * every runtime callback body in src/core is the lint-rule-5 shape,
    checked structurally rather than by regex: the body may contain only
    wait-free `...->post(...)` statements, bare `return`s, and guard
    `if`s whose bodies are nothing but returns — and must post at least
    once. Any other statement (state mutation, logging, scheduling) runs
    middleware logic on a substrate thread and is a finding. This
    subsumes and deepens lint.py rule 5, which only greps for forbidden
    identifiers.
"""

from __future__ import annotations

import re

from . import Finding
from .source import Index, iter_code, line_of, match_brace, match_paren

PASS = "commands"

COMMAND_HEADER = "include/pa/core/command.h"
HANDLER_SCOPE = "src/core/"

STRUCT_RE = re.compile(r"\bstruct\s+(Cmd\w+)\b")
VARIANT_RE = re.compile(
    r"using\s+Command\s*=\s*std::variant<(.*?)>\s*;", re.DOTALL)
HANDLER_RE = re.compile(
    r"::\s*apply\s*\(\s*(?:const\s+)?cmd::(Cmd\w+)\s*&")
CONSTRUCT_RE = re.compile(r"\bcmd::(Cmd\w+)\s*\{")

# Same trigger set as lint.py rule 5 — the three places src/core hands a
# lambda to a substrate that will invoke it on a foreign thread.
CALLBACK_TRIGGERS = re.compile(
    r"callbacks\.on_\w+\s*=|runtime_\.execute_unit\s*\(|"
    r"data_->stage_to_site\s*\(")
POST_STMT_RE = re.compile(r"^\s*\w+\s*->\s*post\s*\(")
RETURN_STMT_RE = re.compile(r"^\s*return\b[^;{}]*;\s*$")
IF_HEAD_RE = re.compile(r"^\s*if\s*\(")
FORBIDDEN_RE = re.compile(
    r"\b(workload_|units_|pilots_|journal_|tracer_|obs_metrics_|model_|"
    r"delta_|dirty_pilots_|dirty_units_|unit_observers_|snapshot_mutex_|"
    r"run_schedule_cycle|publish_snapshot|finalize_unit_apply|"
    r"dispatch_unit_apply|execute_unit_apply)\b")


def statements(code: str, start: int, end: int) -> list[tuple[int, str]]:
    """Top-level statements of a block body as (offset, text): split at
    `;` and at block-closing `}` when nesting returns to zero, so an
    `if (...) { ... }` arrives as one statement."""
    out = []
    depth = 0
    begin = start
    for pos, ch in iter_code(code, start, end):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if ch == "}" and depth == 0:
                out.append((begin, code[begin:pos + 1]))
                begin = pos + 1
        elif ch == ";" and depth == 0:
            out.append((begin, code[begin:pos + 1]))
            begin = pos + 1
    tail = code[begin:end].strip()
    if tail:
        out.append((begin, tail))
    return out


def guard_is_clean(stmt: str) -> bool:
    """True for `if (cond) return...;` / `if (cond) { return...; }` —
    the only control flow a callback may add around its post."""
    m = IF_HEAD_RE.match(stmt)
    if m is None:
        return False
    close = match_paren(stmt, m.end() - 1)
    rest = stmt[close + 1:].strip()
    if rest.startswith("{") and rest.endswith("}"):
        inner = rest[1:-1]
        parts = [s for _, s in statements(inner, 0, len(inner))]
        return bool(parts) and all(RETURN_STMT_RE.match(p) for p in parts)
    return RETURN_STMT_RE.match(rest) is not None


def check_callback_body(rel: str, code: str, body_start: int,
                        body_end: int, trigger_line: int,
                        findings: list[Finding]) -> None:
    posted = False
    for off, stmt in statements(code, body_start + 1, body_end):
        text = stmt.strip()
        if not text:
            continue
        line = line_of(code, off + len(stmt) - len(stmt.lstrip()))
        fm = FORBIDDEN_RE.search(stmt)
        if fm:
            findings.append(Finding(
                rel, line, PASS,
                f"runtime callback touches service state "
                f"`{fm.group(1)}` — callbacks run on substrate threads; "
                f"post a command and let the apply thread do the work"))
            continue
        if POST_STMT_RE.match(text):
            posted = True
            continue
        if RETURN_STMT_RE.match(text):
            continue
        if guard_is_clean(text):
            continue
        head = " ".join(text.split())
        if len(head) > 60:
            head = head[:57] + "..."
        findings.append(Finding(
            rel, line, PASS,
            f"runtime callback statement `{head}` is not the wait-free "
            f"post shape — a callback body may only guard, return, and "
            f"`ctrl_->post(...)`"))
    if not posted:
        findings.append(Finding(
            rel, trigger_line, PASS,
            "runtime callback never posts a command — the only legal "
            "callback body is a wait-free ctrl_->post(<command>)"))


def callback_lambda(code: str, start: int) -> tuple[int, int] | None:
    """(open_brace, close_brace) of the lambda handed to a trigger at
    `start`, or None when the argument is not a lambda."""
    intro = code.find("[", start)
    if intro < 0 or intro - start > 200:
        return None
    open_idx = code.find("{", intro)
    if open_idx < 0:
        return None
    return open_idx, match_brace(code, open_idx)


def run(index: Index) -> list[Finding]:
    findings: list[Finding] = []
    header = index.get(COMMAND_HEADER)
    if header is None:
        findings.append(Finding(COMMAND_HEADER, 1, PASS,
                                "command taxonomy header missing"))
        return findings

    structs = {}
    for m in STRUCT_RE.finditer(header.code):
        structs[m.group(1)] = line_of(header.code, m.start())
    vm = VARIANT_RE.search(header.code)
    if vm is None:
        findings.append(Finding(
            COMMAND_HEADER, 1, PASS,
            "`using Command = std::variant<...>` not found"))
        return findings
    variant = re.findall(r"\b(Cmd\w+)\b", vm.group(1))
    variant_line = line_of(header.code, vm.start())
    dupes = {v for v in variant if variant.count(v) > 1}
    for v in sorted(dupes):
        findings.append(Finding(COMMAND_HEADER, variant_line, PASS,
                                f"{v} appears twice in the Command "
                                f"variant"))
    vset = set(variant)
    for name, line in sorted(structs.items()):
        if name not in vset:
            findings.append(Finding(
                COMMAND_HEADER, line, PASS,
                f"struct {name} is not a member of the Command variant — "
                f"it can never be posted"))
    for name in sorted(vset - set(structs)):
        findings.append(Finding(
            COMMAND_HEADER, variant_line, PASS,
            f"Command variant names {name}, which command.h does not "
            f"define"))

    # --- apply-thread handlers ------------------------------------------
    handlers: dict[str, tuple[str, int]] = {}
    for rel, sf in sorted(index.files.items()):
        if not rel.startswith(HANDLER_SCOPE) or not rel.endswith(".cpp"):
            continue
        for m in HANDLER_RE.finditer(sf.code):
            handlers[m.group(1)] = (rel, line_of(sf.code, m.start()))
    for name in sorted(vset - set(handlers)):
        findings.append(Finding(
            COMMAND_HEADER, variant_line, PASS,
            f"{name} has no apply-thread handler (`apply(cmd::{name}&)`) "
            f"in {HANDLER_SCOPE} — posting it would not compile or not "
            f"be handled"))
    for name, (rel, line) in sorted(handlers.items()):
        if name not in vset:
            findings.append(Finding(
                rel, line, PASS,
                f"handler for {name} exists but the command is not in "
                f"the Command variant — dead handler"))

    # --- every command is constructed somewhere -------------------------
    constructed: set[str] = set()
    for rel, sf in index.files.items():
        if rel == COMMAND_HEADER:
            continue
        constructed.update(CONSTRUCT_RE.findall(sf.code))
    for name in sorted(vset & set(structs)):
        if name not in constructed:
            findings.append(Finding(
                COMMAND_HEADER, structs[name], PASS,
                f"{name} is never constructed outside command.h — dead "
                f"command vocabulary"))

    # --- callback shape (structural lint rule 5) ------------------------
    for rel, sf in sorted(index.files.items()):
        if not rel.startswith(HANDLER_SCOPE) or not rel.endswith(".cpp"):
            continue
        for m in CALLBACK_TRIGGERS.finditer(sf.code):
            region = callback_lambda(sf.code, m.end())
            if region is None:
                continue
            check_callback_body(rel, sf.code, region[0], region[1],
                                line_of(sf.code, m.start()), findings)
    return findings
