#!/usr/bin/env python3
"""dfsim_check: invariant-enforcing static analysis for the dfsim codebase.

Mechanizes the hand-enforced disciplines documented in ARCHITECTURE.md
("Invariants") as six checks:

  CHK-RNG     Every RNG draw call site in the simulation sources appears in
              the committed allowlist tools/dfsim_check/rng_sites.txt with a
              matching occurrence count, tagged with the stream its directory
              owns (routing / traffic / fault / trace). Adding, removing or
              moving a draw site therefore requires editing the allowlist —
              i.e. an explicit golden-regeneration decision (invariant 3).
              Engine code must never hand the routing RNG to another
              subsystem's object (stream separation, invariant 2).

  CHK-GATE    Every access to a fault / telemetry / trace / profiler member
              on a path reachable from Simulator::step() must be dominated by
              that subsystem's enable flag (zero-overhead-when-off,
              invariants 9 and 11). Guards propagate interprocedurally: a
              method whose every call site is guarded is guarded throughout.

  CHK-ALLOC   No allocation-shaped construct (new, push_back, resize,
              std::string construction, ...) in the hot-path function list
              (tools/dfsim_check/hotpath.txt) — the static complement of
              tests/test_pool_zero_alloc.cpp (invariant 1). Capacity-bounded
              sites carry an inline `// dfsim-check: allow(CHK-ALLOC): why`
              waiver.

  CHK-CONFIG  Every row of the parameter table in src/sim/config_io.cpp
              (one row per INI key; parsing and the canonical text both
              read it) is documented in docs/CONFIG.md, and the hash-gated
              groups (fault.* / telemetry.* / trace.* / notify.*) carry
              their group's gate, so configs that leave an axis off never
              change hash (invariant 5).

  CHK-SCHEMA  Every field literal written by src/report/schema.cpp is
              documented in docs/SCHEMA.md for the *current* schema version
              (the doc must name the exact kSchemaVersion string), so a
              schema bump forces a documentation pass (invariant 5).

  CHK-DISPATCH  The engine never names the routing-kind enum: mechanism
              selection lives in src/routing/factory.cpp alone and
              src/engine/simulator.{cpp,hpp} dispatch every routing decision
              through the RoutingMechanism interface, so adding a mechanism
              cannot reintroduce per-kind switches into the hot path.

The analysis is a plain-Python "AST-lite" pass: a comment/string-aware
scanner, a brace-structure function extractor, and a guard-dominance
heuristic. It needs no compiler, so CI can never soft-skip it. When a
compile_commands.json is present (CMAKE_EXPORT_COMPILE_COMMANDS=ON) it is
used as the authoritative translation-unit list; otherwise src/ is globbed.

Exit codes: 0 clean, 1 violations, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

ALL_CHECKS = ("CHK-RNG", "CHK-GATE", "CHK-ALLOC", "CHK-CONFIG", "CHK-SCHEMA",
              "CHK-DISPATCH")

# --- CHK-RNG configuration ---------------------------------------------------

# Directory (under src/) -> RNG stream its draw sites must belong to.
# engine/routing/topo/router draw from the simulator's routing
# stream (mechanisms and triggers receive it by reference); traffic, fault
# and trace own theirs.
STREAM_OF_DIR = {
    "engine": "routing",
    "routing": "routing",
    "topo": "routing",
    "router": "routing",
    "traffic": "traffic",
    "fault": "fault",
    "telemetry": "trace",
}

# Objects the engine must never pass its routing RNG into: each owns its own
# stream, and a leak would entangle the streams (trace replay / observability
# identity would silently break).
FOREIGN_STREAM_RECEIVERS = ("traffic_.", "sink_.", "tracer_.", "fault_.")

RNG_TOKEN = re.compile(r"\brng_?\b")
RNG_METHOD = re.compile(r"\brng_?\s*\.\s*(\w+)\s*\(")
CALL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof", "assert",
                 "static_cast", "const_cast", "reinterpret_cast", "catch"}

# --- CHK-GATE configuration --------------------------------------------------

# Gated member -> tokens that count as its dominating guard. The params_
# forms only appear in construction-time code, but accepting them keeps the
# check honest if setup helpers ever become step-reachable.
GATED_MEMBERS = {
    "sink_": ("telemetry_on_", "params_.telemetry.enabled"),
    "tracer_": ("trace_on_", "params_.trace.enabled"),
    "profiler": ("profile_on_", "profile_on_"),
    "health_": ("fault_on_", "params_.fault.enabled"),
    "fault_": ("fault_on_", "params_.fault.enabled"),
    "ectn_monitor_": ("ectn_monitor_enabled_", "ectn_monitor_enabled_"),
}
GATE_ENTRY_POINT = "Simulator::step"
GATE_FILES = ("src/engine/simulator.cpp", "src/engine/simulator.hpp")

# --- CHK-ALLOC configuration -------------------------------------------------

ALLOC_PATTERNS = (
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\bdelete\b"), "operator delete"),
    (re.compile(r"[.>]\s*push_back\s*\("), "push_back"),
    (re.compile(r"[.>]\s*emplace_back\s*\("), "emplace_back"),
    (re.compile(r"[.>]\s*emplace\s*\("), "emplace"),
    (re.compile(r"[.>]\s*resize\s*\("), "resize"),
    (re.compile(r"[.>]\s*reserve\s*\("), "reserve"),
    (re.compile(r"[.>]\s*insert\s*\("), "insert"),
    (re.compile(r"[.>]\s*assign\s*\("), "assign"),
    (re.compile(r"\bstd::string\b"), "std::string construction"),
    (re.compile(r"\bstd::to_string\b"), "std::to_string"),
    (re.compile(r"\bstd::(?:o|i)?stringstream\b"), "stringstream"),
    (re.compile(r"\bstd::vector\s*<"), "local std::vector"),
    (re.compile(r"\bstd::make_(?:unique|shared)\b"), "make_unique/make_shared"),
    (re.compile(r"\b(?:malloc|calloc|realloc|free)\s*\("), "malloc-family"),
)

WAIVER = re.compile(r"dfsim-check:\s*allow\((CHK-[A-Z]+)\)\s*:\s*(\S.*)")

# --- CHK-DISPATCH configuration ----------------------------------------------

# Engine files that must stay mechanism-agnostic: naming the routing-kind
# enum (or re-reading the selector key) from the engine is how per-kind
# switches creep back into the hot path. Selection belongs to
# src/routing/factory.cpp; everything after construction is virtual dispatch
# through the RoutingMechanism interface.
DISPATCH_FILES = ("src/engine/simulator.cpp", "src/engine/simulator.hpp")
DISPATCH_TOKEN = re.compile(r"\bRoutingKind\b|\brouting\s*\.\s*kind\b")

# --- CHK-CONFIG configuration ------------------------------------------------

CONFIG_IO = "src/sim/config_io.cpp"
SCHEMA_CPP = "src/report/schema.cpp"
SCHEMA_HPP = "src/report/schema.hpp"
CONFIG_DOC = "docs/CONFIG.md"
SCHEMA_DOC = "docs/SCHEMA.md"

# Key groups that enter the canonical params text (and therefore the config
# hash) only when their axis is on, with the gate each of their table rows
# must carry. Every other row is unconditional.
HASH_GATED_PREFIXES = {"fault.": "fault_on", "telemetry.": "telemetry_on",
                       "trace.": "trace_on", "notify.": "notify_on"}
# Keys allowed to be conditionally emitted without being hash-gated groups
# (trace_path is omitted unless trace replay reads it;
# engine.threads is omitted at its default of 1 so every pre-sharding
# config hash — and the committed goldens keyed on them — stays valid,
# while sharded runs fork their hash and carry config_hash_serial for
# cross-shard-count comparisons).
CONDITIONAL_KEY_EXEMPT = {"traffic.trace_path", "engine.threads"}


# ---------------------------------------------------------------------------
# Lexical layer: comment/string-aware scanning with length preservation


@dataclass
class SourceFile:
    relpath: str
    raw: str
    nostrings: str = ""   # comments stripped, string/char contents blanked
    nocomments: str = ""  # comments stripped, strings intact
    waivers: dict = field(default_factory=dict)  # line -> (check, reason)

    def line_of(self, offset: int) -> int:
        return self.raw.count("\n", 0, offset) + 1


def scan_file(relpath: str, text: str) -> SourceFile:
    """Single pass producing both scrubbed views (same length as input)."""
    src = SourceFile(relpath, text)
    nostr = list(text)
    nocom = list(text)
    waivers = {}
    i, n = 0, len(text)
    line = 1
    state = "code"  # code | line | block | str | chr
    comment_start = 0
    while i < n:
        c = text[i]
        if c == "\n":
            if state == "line":
                m = WAIVER.search(text[comment_start:i])
                if m:
                    waivers[line] = (m.group(1), m.group(2).strip())
                state = "code"
            line += 1
            i += 1
            continue
        if state == "code":
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                state = "line"
                comment_start = i
                nostr[i] = nocom[i] = " "
            elif c == "/" and nxt == "*":
                state = "block"
                comment_start = i
                nostr[i] = nocom[i] = " "
            elif c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            i += 1
            continue
        if state == "line":
            nostr[i] = nocom[i] = " "
            i += 1
            continue
        if state == "block":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                m = WAIVER.search(text[comment_start:i])
                if m:
                    waivers[line] = (m.group(1), m.group(2).strip())
                nostr[i] = nostr[i + 1] = nocom[i] = nocom[i + 1] = " "
                state = "code"
                i += 2
                continue
            nostr[i] = nocom[i] = " "
            i += 1
            continue
        # string or char literal: keep quotes, blank contents in nostrings
        quote = '"' if state == "str" else "'"
        if c == "\\" and i + 1 < n:
            nostr[i] = " "
            if text[i + 1] != "\n":
                nostr[i + 1] = " "
            i += 2
            continue
        if c == quote:
            state = "code"
        else:
            nostr[i] = " "
        i += 1
    src.nostrings = "".join(nostr)
    src.nocomments = "".join(nocom)
    src.waivers = waivers
    return src


# ---------------------------------------------------------------------------
# Structural layer: function extraction over the scrubbed text


@dataclass
class Function:
    relpath: str
    qualname: str       # e.g. "Simulator::step" or "canonical_params_text"
    start: int          # offset of the signature chunk
    body_start: int     # offset just after the opening '{'
    body_end: int       # offset of the closing '}'


IDENT_CALL = re.compile(r"([A-Za-z_~][A-Za-z0-9_]*(?:::[A-Za-z_~][A-Za-z0-9_]*)*)\s*\(")
CLASS_DECL = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)[^;(]*$")
NAMESPACE_DECL = re.compile(r"\bnamespace\b")


def match_paren(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_brace(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def chunk_function_name(chunk: str) -> str | None:
    """If `chunk` (the text preceding a '{') is a function signature, return
    the function's name; otherwise None."""
    for m in IDENT_CALL.finditer(chunk):
        name = m.group(1)
        if name.split("::")[-1] in CALL_KEYWORDS:
            continue
        close = match_paren(chunk, m.end() - 1)
        if close < 0:
            continue
        tail = chunk[close + 1:].strip()
        # Signature tails: nothing, cv/ref qualifiers, noexcept, override,
        # trailing return, or a constructor initializer list.
        if tail == "" or re.fullmatch(
                r"(?:const|noexcept|override|final|&&?|->\s*[\w:<>,&*\s\[\]]+|\s)*",
                tail) or tail.startswith(":"):
            return name
    return None


def extract_functions(src: SourceFile) -> list[Function]:
    text = src.nostrings
    functions: list[Function] = []
    class_stack: list[str | None] = []  # class name or None (namespace/other)
    i, n = 0, len(text)
    chunk_start = 0
    while i < n:
        c = text[i]
        if c in ";":
            chunk_start = i + 1
        elif c == "}":
            if class_stack:
                class_stack.pop()
            chunk_start = i + 1
        elif c == "{":
            chunk = text[chunk_start:i]
            name = chunk_function_name(chunk)
            if name is not None:
                qual = name
                if "::" not in name:
                    encl = next((cn for cn in reversed(class_stack) if cn), None)
                    if encl:
                        qual = f"{encl}::{name}"
                end = match_brace(text, i)
                functions.append(Function(src.relpath, qual, chunk_start, i + 1, end))
                i = end + 1
                chunk_start = i
                continue
            if NAMESPACE_DECL.search(chunk):
                class_stack.append(None)
            else:
                m = CLASS_DECL.search(chunk)
                class_stack.append(m.group(1) if m else None)
            chunk_start = i + 1
        i += 1
    return functions


# ---------------------------------------------------------------------------
# Guard layer: which if-conditions dominate an offset inside a function body


def statement_start(text: str, offset: int) -> int:
    for i in range(offset - 1, -1, -1):
        if text[i] in ";{}":
            return i + 1
    return 0


def enclosing_conditions(body: str, offset: int) -> str:
    """Concatenated text of every `if (...)` condition governing `offset`:
    enclosing brace blocks opened by an if, plus the current statement's
    prefix (covers brace-less ifs, `flag && ...` short circuits and
    `flag ? ... : ...` selections)."""
    conds: list[str] = []
    stack: list[str | None] = []
    i = 0
    while i < offset:
        c = body[i]
        if c == "{":
            chunk = body[statement_start(body, i):i]
            cond = None
            m = None
            for m in re.finditer(r"\bif\s*\(", chunk):
                pass
            if m is not None:
                close = match_paren(chunk, m.end() - 1)
                if close >= 0 and chunk[close + 1:].strip() == "":
                    cond = chunk[m.end():close]
            stack.append(cond)
        elif c == "}":
            if stack:
                stack.pop()
        i += 1
    conds = [c for c in stack if c]
    conds.append(body[statement_start(body, offset):offset])
    return "\n".join(conds)


# ---------------------------------------------------------------------------
# Violations


@dataclass
class Violation:
    check: str
    relpath: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.check} {self.relpath}:{self.line}: {self.message}"


class Analysis:
    def __init__(self, root: str, compile_commands: str | None):
        self.root = root
        self.compile_commands = compile_commands
        self.files: dict[str, SourceFile] = {}
        self.functions: dict[str, list[Function]] = {}
        self.violations: list[Violation] = []

    # --- infrastructure

    def fail(self, check: str, relpath: str, line: int, msg: str,
             waivable: bool = False):
        if waivable:
            src = self.files.get(relpath)
            if src is not None:
                for ln in (line, line - 1):
                    w = src.waivers.get(ln)
                    if w and w[0] == check:
                        return
        self.violations.append(Violation(check, relpath, line, msg))

    def load(self, relpath: str) -> SourceFile | None:
        if relpath in self.files:
            return self.files[relpath]
        path = os.path.join(self.root, relpath)
        if not os.path.isfile(path):
            return None
        with open(path, "r", encoding="utf-8") as f:
            src = scan_file(relpath, f.read())
        self.files[relpath] = src
        self.functions[relpath] = extract_functions(src)
        return src

    def source_files(self) -> list[str]:
        """Translation units under src/: from compile_commands.json when
        available (the authoritative list CMake builds), globbed otherwise —
        plus headers, which hold the inline hot-path helpers."""
        found: set[str] = set()
        cc = self.compile_commands
        if cc is None:
            for cand in ("build/compile_commands.json", "compile_commands.json"):
                if os.path.isfile(os.path.join(self.root, cand)):
                    cc = os.path.join(self.root, cand)
                    break
        if cc and os.path.isfile(cc):
            with open(cc, "r", encoding="utf-8") as f:
                for entry in json.load(f):
                    path = os.path.normpath(os.path.join(
                        entry.get("directory", ""), entry.get("file", "")))
                    rel = os.path.relpath(path, self.root)
                    if rel.startswith("src" + os.sep):
                        found.add(rel.replace(os.sep, "/"))
        src_root = os.path.join(self.root, "src")
        for dirpath, _dirs, names in os.walk(src_root):
            for name in names:
                rel = os.path.relpath(os.path.join(dirpath, name), self.root)
                rel = rel.replace(os.sep, "/")
                if name.endswith(".hpp") or (name.endswith(".cpp") and not cc):
                    found.add(rel)
        return sorted(found)

    def function_at(self, relpath: str, offset: int) -> Function | None:
        for fn in self.functions.get(relpath, ()):
            if fn.body_start <= offset < fn.body_end:
                return fn
        return None

    def find_function(self, relpath: str, qualname: str) -> Function | None:
        for fn in self.functions.get(relpath, ()):
            if fn.qualname == qualname:
                return fn
        return None

    # --- CHK-RNG

    def rng_draw_sites(self, src: SourceFile) -> list[tuple[int, str]]:
        """(offset, signature) for every RNG draw expression in the file.
        Two shapes: a direct method call on an rng object (`rng_.next_below(`)
        and passing an rng object into a drawing callee
        (`topo_.sample_nonmin(rng_, ...)`)."""
        text = src.nostrings
        sites: list[tuple[int, str]] = []
        for m in RNG_METHOD.finditer(text):
            sites.append((m.start(), f"rng.{m.group(1)}"))
        for m in RNG_TOKEN.finditer(text):
            before = text[:m.start()].rstrip()
            after = text[m.end():].lstrip()
            if after.startswith((".", "(", "=")):
                continue  # method call (handled above), ctor-init, assignment
            if before.endswith(("&", "Rng", ".")):
                continue  # parameter/local declaration or member path
            # Find the innermost unclosed '(' before the token: that call is
            # consuming the rng by reference -> a draw site at the callee.
            depth = 0
            callee = None
            for i in range(m.start() - 1, max(0, m.start() - 400), -1):
                ch = text[i]
                if ch == ")":
                    depth += 1
                elif ch == "(":
                    if depth == 0:
                        head = re.search(r"([A-Za-z_][\w.\->:]*)\s*$", text[:i])
                        if head:
                            callee = head.group(1)
                        break
                    depth -= 1
                elif ch in ";{}":
                    break
            if callee and callee.split("::")[-1].split(".")[-1] not in CALL_KEYWORDS:
                sites.append((m.start(), f"{callee}(rng)"))
        return sites

    def check_rng(self):
        allow_path = "tools/dfsim_check/rng_sites.txt"
        allow_file = os.path.join(self.root, allow_path)
        allowed: dict[tuple[str, str, str], tuple[str, int, int]] = {}
        if os.path.isfile(allow_file):
            with open(allow_file, "r", encoding="utf-8") as f:
                for ln, line in enumerate(f, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    parts = line.split()
                    if len(parts) != 5:
                        self.fail("CHK-RNG", allow_path, ln,
                                  "malformed allowlist line (want: stream "
                                  "path function signature count)")
                        continue
                    stream, path, func, sig, count = parts
                    allowed[(path, func, sig)] = (stream, int(count), ln)
        else:
            self.fail("CHK-RNG", allow_path, 1, "allowlist file missing")

        seen: dict[tuple[str, str, str], list[int]] = {}
        for relpath in self.source_files():
            parts = relpath.split("/")
            if len(parts) < 3 or parts[0] != "src":
                continue
            subdir = parts[1]
            src = self.load(relpath)
            if src is None:
                continue
            for offset, sig in self.rng_draw_sites(src):
                fn = self.function_at(relpath, offset)
                func = fn.qualname if fn else "<toplevel>"
                line = src.line_of(offset)
                stream = STREAM_OF_DIR.get(subdir)
                if stream is None:
                    self.fail("CHK-RNG", relpath, line,
                              f"RNG draw `{sig}` in src/{subdir}/ which owns "
                              "no RNG stream (extend STREAM_OF_DIR "
                              "deliberately if this subsystem gains one)")
                    continue
                if stream == "routing" and sig.startswith(FOREIGN_STREAM_RECEIVERS):
                    self.fail("CHK-RNG", relpath, line,
                              f"routing RNG passed into `{sig}`: each "
                              "subsystem draws only from its own stream")
                    continue
                seen.setdefault((relpath, func, sig), []).append(line)

        for key, lines in sorted(seen.items()):
            relpath, func, sig = key
            entry = allowed.pop(key, None)
            if entry is None:
                self.fail("CHK-RNG", relpath, lines[0],
                          f"undeclared RNG draw site `{sig}` in {func} "
                          f"(x{len(lines)}): add it to {allow_path} together "
                          "with a deliberate golden-regeneration decision")
                continue
            stream, count, ln = entry
            expected = STREAM_OF_DIR[relpath.split("/")[1]]
            if stream != expected:
                self.fail("CHK-RNG", allow_path, ln,
                          f"draw site `{sig}` in {relpath} declared on "
                          f"stream '{stream}' but src/{relpath.split('/')[1]}/ "
                          f"owns stream '{expected}'")
            if count != len(lines):
                self.fail("CHK-RNG", relpath, lines[0],
                          f"draw site `{sig}` in {func} occurs "
                          f"{len(lines)}x but {allow_path} declares {count}: "
                          "update the allowlist (and regenerate goldens if "
                          "the draw sequence moved)")
        for key, (_stream, _count, ln) in sorted(allowed.items()):
            self.fail("CHK-RNG", allow_path, ln,
                      f"stale allowlist entry: `{key[2]}` in {key[1]} "
                      f"({key[0]}) no longer exists")

    # --- CHK-GATE

    def gate_reachable(self) -> tuple[dict[str, Function], dict[str, set[str]]]:
        """Methods reachable from Simulator::step and, per method, the set of
        guard tokens dominating *every* call chain into it."""
        methods: dict[str, Function] = {}
        for relpath in GATE_FILES:
            if self.load(relpath) is None:
                continue
            for fn in self.functions[relpath]:
                if fn.qualname.startswith("Simulator::"):
                    methods.setdefault(fn.qualname, fn)
        if GATE_ENTRY_POINT not in methods:
            return {}, {}

        all_tokens: set[str] = set()
        for toks in GATED_MEMBERS.values():
            all_tokens.update(toks)

        short = {q.split("::")[-1]: q for q in methods}
        call_re = re.compile(
            r"(?<![\w.>])(" + "|".join(re.escape(s) for s in sorted(short)) +
            r")\s*\(")

        def body_of(fn: Function) -> str:
            return self.files[fn.relpath].nostrings[fn.body_start:fn.body_end]

        # Call sites: callee -> list of (caller, guard tokens at the site).
        calls: dict[str, list[tuple[str, set[str]]]] = {q: [] for q in methods}
        for qual, fn in methods.items():
            body = body_of(fn)
            for m in call_re.finditer(body):
                callee = short[m.group(1)]
                if callee == qual:
                    continue
                cond = enclosing_conditions(body, m.start())
                toks = {t for t in all_tokens if t in cond}
                calls[callee].append((qual, toks))

        # Reachability from step.
        reachable = {GATE_ENTRY_POINT}
        frontier = [GATE_ENTRY_POINT]
        while frontier:
            cur = frontier.pop()
            body = body_of(methods[cur])
            for m in call_re.finditer(body):
                callee = short[m.group(1)]
                if callee not in reachable:
                    reachable.add(callee)
                    frontier.append(callee)

        # Entry-guard fixpoint: guards a method can rely on unconditionally.
        entry: dict[str, set[str]] = {q: set(all_tokens) for q in reachable}
        entry[GATE_ENTRY_POINT] = set()
        changed = True
        while changed:
            changed = False
            for qual in reachable:
                if qual == GATE_ENTRY_POINT:
                    continue
                sites = [(c, t) for c, t in calls[qual] if c in reachable]
                if not sites:
                    new = set()
                else:
                    new = set(all_tokens)
                    for caller, toks in sites:
                        new &= toks | entry[caller]
                if new != entry[qual]:
                    entry[qual] = new
                    changed = True
        return {q: methods[q] for q in reachable}, entry

    def check_gate(self):
        if self.load(GATE_FILES[0]) is None:
            return
        reachable, entry = self.gate_reachable()
        if not reachable:
            self.fail("CHK-GATE", GATE_FILES[0], 1,
                      f"entry point {GATE_ENTRY_POINT} not found: the "
                      "reachability analysis has nothing to anchor on")
            return
        member_res = {
            member: re.compile(r"\b" + re.escape(member) + r"\s*[.\[]")
            for member in GATED_MEMBERS
        }
        for qual, fn in sorted(reachable.items()):
            src = self.files[fn.relpath]
            body = src.nostrings[fn.body_start:fn.body_end]
            for member, accept in GATED_MEMBERS.items():
                for m in member_res[member].finditer(body):
                    cond = enclosing_conditions(body, m.start())
                    granted = entry.get(qual, set())
                    if any(t in cond for t in accept) or \
                       any(t in granted for t in accept):
                        continue
                    line = src.line_of(fn.body_start + m.start())
                    self.fail("CHK-GATE", fn.relpath, line,
                              f"access to `{member}` in {qual} (reachable "
                              f"from {GATE_ENTRY_POINT}) is not dominated by "
                              f"`{accept[0]}`: zero-overhead-when-off "
                              "requires every observability/fault touch to "
                              "sit behind its enable guard", waivable=True)

    # --- CHK-ALLOC

    def check_alloc(self):
        list_path = "tools/dfsim_check/hotpath.txt"
        path = os.path.join(self.root, list_path)
        if not os.path.isfile(path):
            self.fail("CHK-ALLOC", list_path, 1, "hot-path list missing")
            return
        targets: list[tuple[str, str, int]] = []  # (relpath, qualname, line)
        closures: list[tuple[str, str, int]] = []
        with open(path, "r", encoding="utf-8") as f:
            for ln, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3 or parts[0] not in ("fn", "reachable"):
                    self.fail("CHK-ALLOC", list_path, ln,
                              "malformed line (want: fn|reachable path "
                              "Qual::name)")
                    continue
                kind, relpath, qual = parts
                (closures if kind == "reachable" else targets).append(
                    (relpath, qual, ln))

        resolved: dict[tuple[str, str], Function] = {}
        for relpath, qual, ln in targets:
            if self.load(relpath) is None:
                self.fail("CHK-ALLOC", list_path, ln,
                          f"hot-path file {relpath} not found")
                continue
            fn = self.find_function(relpath, qual)
            if fn is None:
                self.fail("CHK-ALLOC", list_path, ln,
                          f"hot-path function {qual} not found in {relpath} "
                          "(keep hotpath.txt in sync with the code)")
                continue
            resolved[(relpath, qual)] = fn

        for relpath, qual, ln in closures:
            if self.load(relpath) is None:
                self.fail("CHK-ALLOC", list_path, ln,
                          f"closure root file {relpath} not found")
                continue
            if relpath in GATE_FILES:
                reachable, _entry = self.gate_reachable()
                if qual not in reachable:
                    self.fail("CHK-ALLOC", list_path, ln,
                              f"closure root {qual} not found in {relpath}")
                    continue
                for q, fn in reachable.items():
                    resolved.setdefault((fn.relpath, q), fn)
            else:
                self.fail("CHK-ALLOC", list_path, ln,
                          "reachable roots are only supported in "
                          f"{GATE_FILES[0]} (Simulator call graph)")

        def vector_is_reference(body: str, m: re.Match) -> bool:
            """`const std::vector<T>& x = ...` binds, it does not allocate."""
            depth = 0
            for i in range(m.end() - 1, len(body)):
                if body[i] == "<":
                    depth += 1
                elif body[i] == ">":
                    depth -= 1
                    if depth == 0:
                        rest = body[i + 1:].lstrip()
                        return rest.startswith(("&", "*"))
                elif body[i] in ";{}":
                    break
            return False

        for (relpath, qual), fn in sorted(resolved.items()):
            src = self.files[relpath]
            body = src.nostrings[fn.body_start:fn.body_end]
            for pattern, what in ALLOC_PATTERNS:
                for m in pattern.finditer(body):
                    if what == "local std::vector" and \
                            vector_is_reference(body, m):
                        continue
                    line = src.line_of(fn.body_start + m.start())
                    self.fail("CHK-ALLOC", relpath, line,
                              f"{what} in hot-path function {qual}: "
                              "zero-alloc-after-warmup forbids allocation "
                              "here (waive capacity-bounded sites with "
                              "`// dfsim-check: allow(CHK-ALLOC): why`)",
                              waivable=True)

    # --- CHK-CONFIG

    def config_rows(self) -> dict[str, tuple[int, str | None]]:
        """Key -> (line, gate name or None) for each ROW(...) entry. A row's
        arguments after the key are its range, gate and parser in any
        order; the gate is the one naming a `bool f(const SimParams&)`."""
        src = self.load(CONFIG_IO)
        if src is None:
            return {}
        gates = set(re.findall(r"\bbool\s+(\w+)\(\s*const\s+SimParams&",
                               src.nocomments))
        rows: dict[str, tuple[int, str | None]] = {}
        for m in re.finditer(
                r"(?<!define )\bROW\(\s*([A-Za-z0-9_.]+)\s*([^\n]*)",
                src.nocomments):
            gate = next((a for a in re.findall(r"\w+", m.group(2))
                         if a in gates), None)
            rows.setdefault(m.group(1), (src.line_of(m.start()), gate))
        return rows

    def check_config(self):
        rows = self.config_rows()
        if not rows:
            self.fail("CHK-CONFIG", CONFIG_IO, 1,
                      "no parameter table rows found (ROW(...) missing?)")
            return
        doc_src = self.load(CONFIG_DOC)
        doc_keys: set[str] = set()
        if doc_src is None:
            self.fail("CHK-CONFIG", CONFIG_DOC, 1, "docs/CONFIG.md missing")
        else:
            doc_keys = set(re.findall(r"`([A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)?)`",
                                      doc_src.raw))

        for key, (line, gate) in sorted(rows.items()):
            if doc_src is not None and key not in doc_keys:
                self.fail("CHK-CONFIG", CONFIG_IO, line,
                          f"INI key `{key}` is parsed but not documented in "
                          f"{CONFIG_DOC}")
            # Hash-gating: gated groups carry their group's gate, and nothing
            # else is conditional.
            want = next((g for p, g in HASH_GATED_PREFIXES.items()
                         if key.startswith(p)), None)
            if want is not None:
                if gate != want:
                    self.fail("CHK-CONFIG", CONFIG_IO, line,
                              f"hash-gated key `{key}` must carry the gate "
                              f"`{want}` so configs with its axis off keep "
                              "their hash")
            elif gate not in (None, "nullptr") and \
                    key not in CONDITIONAL_KEY_EXEMPT:
                self.fail("CHK-CONFIG", CONFIG_IO, line,
                          f"key `{key}` is emitted conditionally "
                          f"(gate `{gate}`) but is not on the "
                          "emit-only-when-enabled list (HASH_GATED_PREFIXES / "
                          "CONDITIONAL_KEY_EXEMPT): conditional emission "
                          "silently forks config hashes")

    # --- CHK-SCHEMA

    def check_schema(self):
        src = self.load(SCHEMA_CPP)
        if src is None:
            self.fail("CHK-SCHEMA", SCHEMA_CPP, 1, "schema.cpp missing")
            return
        hpp = self.load(SCHEMA_HPP)
        version = None
        if hpp is not None:
            m = re.search(r'kSchemaVersion\s*=\s*"([^"]+)"', hpp.nocomments)
            if m:
                version = m.group(1)
        doc = self.load(SCHEMA_DOC)
        if doc is None:
            self.fail("CHK-SCHEMA", SCHEMA_DOC, 1,
                      "docs/SCHEMA.md missing: every results field must be "
                      "documented for the current schema version")
            return
        if version and version not in doc.raw:
            self.fail("CHK-SCHEMA", SCHEMA_DOC, 1,
                      f"docs/SCHEMA.md does not mention the current schema "
                      f"version `{version}`: a version bump requires a "
                      "documentation pass")
        doc_fields = set(re.findall(r"`([A-Za-z0-9_.]+)`", doc.raw))
        for m in re.finditer(r'\.set\(\s*"([A-Za-z0-9_.]+)"', src.nocomments):
            fieldname = m.group(1)
            if fieldname not in doc_fields:
                self.fail("CHK-SCHEMA", SCHEMA_CPP, src.line_of(m.start()),
                          f"results field `{fieldname}` is written by "
                          f"schema.cpp but not documented in {SCHEMA_DOC}")

    # --- CHK-DISPATCH

    def check_dispatch(self):
        for relpath in DISPATCH_FILES:
            src = self.load(relpath)
            if src is None:
                self.fail("CHK-DISPATCH", relpath, 1, "engine file missing")
                continue
            for m in DISPATCH_TOKEN.finditer(src.nostrings):
                self.fail("CHK-DISPATCH", relpath, src.line_of(m.start()),
                          f"engine references `{m.group(0).strip()}`: "
                          "mechanism selection belongs in src/routing/ "
                          "(factory.cpp) — the engine must dispatch through "
                          "the RoutingMechanism interface only",
                          waivable=True)

    # --- driver

    def run(self, checks: list[str]) -> int:
        dispatch = {
            "CHK-RNG": self.check_rng,
            "CHK-GATE": self.check_gate,
            "CHK-ALLOC": self.check_alloc,
            "CHK-CONFIG": self.check_config,
            "CHK-SCHEMA": self.check_schema,
            "CHK-DISPATCH": self.check_dispatch,
        }
        for check in checks:
            dispatch[check]()
        return 1 if self.violations else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="dfsim_check",
                                     description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", default=".",
                        help="repository root to analyze (default: cwd)")
    parser.add_argument("--checks", default=",".join(ALL_CHECKS),
                        help="comma-separated subset of checks to run")
    parser.add_argument("--compile-commands", default=None,
                        help="explicit compile_commands.json path")
    parser.add_argument("--list", action="store_true",
                        help="list available checks and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)

    if args.list:
        for c in ALL_CHECKS:
            print(c)
        return 0

    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        print(f"dfsim_check: unknown check(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")) and \
       not os.path.isdir(os.path.join(root, "tools")):
        print(f"dfsim_check: {root} does not look like a dfsim tree",
              file=sys.stderr)
        return 2

    analysis = Analysis(root, args.compile_commands)
    rc = analysis.run(checks)
    for v in analysis.violations:
        print(v.render())
    if not args.quiet:
        print(f"dfsim_check: {len(checks)} check(s) "
              f"[{', '.join(checks)}], {len(analysis.violations)} "
              f"violation(s)")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
