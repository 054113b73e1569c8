"""Rule implementations for spb_lint (see package docstring)."""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Directories whose code must draw randomness only from common/rng.h.
DETERMINISTIC_DIRS = ("src/sim/", "src/mp/", "src/plan/")

# Zero-cost feature flags that must be proven default-off somewhere in the
# scanned tree (they live in bench/util.h; .faults uses .any()).
REQUIRED_FLAG_ASSERTS = ("trace", "record_schedule", "link_stats", "faults",
                         "sim_threads")

# Directories whose hot paths may run on several drain workers at once
# (the sharded engine, see sim/sharded.h): mutable static or
# namespace-scope state there is a data race and a determinism leak.
SHARD_SAFE_DIRS = ("src/sim/", "src/net/", "src/mp/")

UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*(?:\w+\s*\.\s*)?(\w+)\s*\)")
BANNED_RANDOM = re.compile(
    r"\b(?:rand|srand|time)\s*\(|\brandom_device\b")
GUARD_DECL = re.compile(
    r"\b(?:std\s*::\s*)?(lock_guard|unique_lock|scoped_lock)\s*[<\s]")
CO_SUSPEND = re.compile(r"\bco_(?:await|yield)\b")
# A declaration whose storage class makes it shared across calls: static,
# thread_local, or an inline (namespace-scope) variable.  Function
# declarations never match — the lazy body class excludes parentheses, so
# the pattern dies at a parameter list before finding the `;` or `=`.
STATIC_STATE = re.compile(
    r"^[ \t]*(?:(?:static|thread_local|inline)\s+){1,3}[^;{}()\n]*?[;=]",
    re.M)
# Qualifiers that make shared state benign: immutable or atomic.
BENIGN_STATE = re.compile(
    r"\b(?:const|constexpr|consteval|constinit)\b|\batomic")
# Fields every machine-registry catalogue entry must fill with a non-empty
# string literal (rule U6): the `--machine list` catalogue, the CLI usage
# grammar and the unknown-spec error are all built from them.
REGISTRY_ENTRY_FIELDS = ("pattern", "description", "example", "prefix")
REGISTRY_PUSH = re.compile(r"entries_\.push_back\s*\(\s*\{")
NONEMPTY_LITERAL = re.compile(r'"(?:[^"\\\n]|\\.)+"')
# Coroutine pitfalls (rules U7, U8): functions declared as returning
# sim::Task, lambda introducers up to the body's `{`, and the keywords that
# make a body a coroutine.
TASK_DECL = re.compile(r"\bsim::Task\s+(\w+)\s*\(")
LAMBDA_INTRO = re.compile(r"\[([^\[\]]*)\]\s*(?:\([^)]*\)\s*)?"
                          r"(?:mutable\s*)?(?:->\s*[\w:]+\s*)?\{")
CO_KEYWORD = re.compile(r"\bco_(?:await|return|yield)\b")
# What may precede a Task call at the start of a line without discarding
# it: the call is awaited, returned, assigned, spawned or declared.
TASK_CONSUMER = re.compile(
    r"(co_await|co_return|return|=|\bspawn\b|sim::Task|\bTask\b)\s*$")
# Stream objects (rule U9): declared in a coroutine body, one sits in the
# heap frame for the coroutine's whole life.
STREAM_DECL = re.compile(
    r"\b(?:std\s*::\s*)?((?:o|i)?stringstream)\s+(\w+)\s*[;({=]")
# What may end a function head before its body's `{` after the parameter
# list: cv/ref qualifiers, specifiers, a trailing return type.
HEAD_SUFFIX = re.compile(
    r"(?:\b(?:const|noexcept|override|final|mutable)\b|&&?|"
    r"->\s*[\w:<>]+(?:\s*[*&])?)\s*$")
# Words that open a parenthesized block that is not a function body.
CONTROL_WORDS = {"if", "for", "while", "switch", "catch", "constexpr"}


def strip_comments(text: str) -> str:
    """Blanks out comments and string literals, preserving offsets."""
    out = []
    i, n = 0, len(text)
    while i < n:
        two = text[i:i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:j]))
            i = j
        elif text[i] in "\"'":
            quote = text[i]
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def line_of(text: str, idx: int) -> int:
    return text.count("\n", 0, idx) + 1


def _suppressed(raw: str, text: str, idx: int) -> bool:
    """True when the raw source line carrying `idx` opts out via NOLINT."""
    start = text.rfind("\n", 0, idx) + 1
    end = text.find("\n", idx)
    end = len(text) if end < 0 else end
    return "NOLINT" in raw[start:end]


def unordered_variables(text: str) -> set[str]:
    """Names of variables/members declared with an unordered container."""
    names = set()
    for m in UNORDERED_DECL.finditer(text):
        close = _matching_close(text, m.end() - 1, "<>")
        decl = re.match(r"\s*&?\s*(\w+)\s*[;={(]", text[close:])
        if decl:
            names.add(decl.group(1))
    return names


def check_unordered_iteration(path: Path, raw: str, text: str) -> list[str]:
    """U1: range-for over an unordered container variable."""
    names = unordered_variables(text)
    findings = []
    for m in RANGE_FOR.finditer(text):
        if m.group(1) not in names or _suppressed(raw, text, m.start()):
            continue
        findings.append(
            f"{path}:{line_of(text, m.start())}: [unordered-iteration] "
            f"range-for over unordered container '{m.group(1)}' — iteration "
            f"order is unspecified and poisons deterministic output; sort "
            f"the keys or use an ordered container")
    return findings


def check_banned_randomness(path: Path, raw: str, text: str) -> list[str]:
    """U2: wall-clock / libc randomness inside the deterministic core."""
    posix = path.as_posix()
    if not any(d in posix for d in DETERMINISTIC_DIRS):
        return []
    findings = []
    for m in BANNED_RANDOM.finditer(text):
        if _suppressed(raw, text, m.start()):
            continue
        what = m.group(0).rstrip("(").strip()
        findings.append(
            f"{path}:{line_of(text, m.start())}: [banned-randomness] "
            f"'{what}' in the deterministic core — every choice in "
            f"src/sim, src/mp and src/plan must come from the seeded "
            f"common/rng.h stream")
    return findings


def check_guard_across_suspend(path: Path, raw: str, text: str) -> list[str]:
    """U3: mutex guard scope containing a coroutine suspension point."""
    findings = []
    for m in GUARD_DECL.finditer(text):
        if _suppressed(raw, text, m.start()):
            continue
        # End of the guard's lifetime: the `}` that closes the scope the
        # declaration lives in (brace depth going negative).
        stmt_end = text.find(";", m.end())
        if stmt_end < 0:
            continue
        depth = 0
        scope_end = len(text)
        for i in range(stmt_end, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth < 0:
                    scope_end = i
                    break
        suspend = CO_SUSPEND.search(text, stmt_end, scope_end)
        if suspend:
            findings.append(
                f"{path}:{line_of(text, m.start())}: [guard-across-suspend] "
                f"{m.group(1)} still held at the co_await/co_yield on line "
                f"{line_of(text, suspend.start())} — the frame suspends "
                f"with the mutex locked; release the guard before "
                f"suspending")
    return findings


def _suppressed_for(raw: str, text: str, idx: int, category: str) -> bool:
    """True when the line carrying `idx` (or the one above it, via
    NOLINTNEXTLINE) opts out of `category` with a rationale — the annotation
    must carry the category name and a `:` followed by an explanation."""
    start = text.rfind("\n", 0, idx) + 1
    end = text.find("\n", idx)
    end = len(text) if end < 0 else end
    lines = [raw[start:end]]
    prev_start = text.rfind("\n", 0, max(start - 1, 0)) + 1
    if start > 0:
        lines.append(raw[prev_start:start - 1])
    annot = re.compile(
        r"NOLINT(?:NEXTLINE)?\(" + re.escape(category) + r"\)\s*:\s*\S")
    return any(annot.search(line) for line in lines)


def check_mutable_static_state(path: Path, raw: str, text: str) -> list[str]:
    """U5: mutable static / namespace-scope state in shard-visible code.

    The sharded engine (sim/sharded.h) drains src/sim, src/mp and src/net
    hot paths on several worker threads inside a window.  Any static or
    namespace-scope variable they touch is therefore shared mutable state:
    a data race and — because update order would depend on thread timing —
    a determinism leak.  Such state must be immutable (const/constexpr),
    std::atomic, per-shard (owned by a shard-indexed structure), or carry
    an explicit NOLINT(spb-mutable-global): <rationale> annotation.
    """
    posix = path.as_posix()
    if not any(d in posix for d in SHARD_SAFE_DIRS):
        return []
    findings = []
    for m in STATIC_STATE.finditer(text):
        decl = m.group(0)
        if BENIGN_STATE.search(decl):
            continue
        # `inline namespace` and friends are not variable declarations.
        if re.search(r"\b(?:namespace|using|typedef|class|struct|enum)\b",
                     decl):
            continue
        if _suppressed_for(raw, text, m.start(), "spb-mutable-global"):
            continue
        findings.append(
            f"{path}:{line_of(text, m.start())}: [mutable-global-state] "
            f"mutable static/namespace-scope state reachable from the "
            f"sharded engine's concurrent drains — make it const, "
            f"std::atomic, per-shard, or annotate the line with "
            f"NOLINT(spb-mutable-global): <why it is race-free>")
    return findings


def _matching_close(text: str, open_idx: int, pair: str) -> int:
    """Index just past the bracket closing the `pair[0]` at open_idx."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == pair[0]:
            depth += 1
        elif text[i] == pair[1]:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def _matching_brace(text: str, open_idx: int) -> int:
    """Index just past the `}` closing the `{` at open_idx."""
    return _matching_close(text, open_idx, "{}")


def check_registry_catalogue(path: Path, raw: str, text: str) -> list[str]:
    """U6: every machine-registry entry documents itself.

    Each `entries_.push_back({...})` in the machine registry must set
    .pattern, .description, .example and .prefix to non-empty string
    literals — `--machine list`, the usage grammar and the unknown-spec
    error are generated from these fields, so an empty one silently
    degrades every CLI.  Matching runs on the raw source because
    strip_comments blanks string-literal contents.

    Additionally, no entry's .prefix may be a prefix of a *later* entry's
    .prefix: Registry::parse dispatches on the first matching prefix in
    registration order, so the earlier entry would shadow the later one
    and claim its specs (a "t3" entry before "t3d" would swallow every
    t3d512).  The registry constructor enforces the same property at run
    time; this catches it at lint time.
    """
    findings = []
    prefixes = []  # (line, literal) in registration order
    for m in REGISTRY_PUSH.finditer(text):
        open_idx = m.end() - 1
        block = raw[open_idx:_matching_brace(text, open_idx)]
        line = line_of(text, m.start())
        for field in REGISTRY_ENTRY_FIELDS:
            value = re.search(
                r"\.\s*" + field + r"\s*=\s*((?:\s*\"(?:[^\"\\\n]|\\.)*\")+)",
                block)
            if value is None or not NONEMPTY_LITERAL.search(value.group(1)):
                findings.append(
                    f"{path}:{line}: [registry-catalogue] machine-registry "
                    f"entry with a missing or empty .{field} — the "
                    f"--machine list catalogue, the usage grammar and the "
                    f"unknown-spec error are built from it; fill every "
                    f"field with a string literal")
            elif field == "prefix":
                literal = NONEMPTY_LITERAL.search(value.group(1))
                prefixes.append((line, literal.group(0)[1:-1]))
    for i, (line, early) in enumerate(prefixes):
        for later_line, later in prefixes[i + 1:]:
            if later.startswith(early):
                findings.append(
                    f"{path}:{line}: [registry-catalogue] machine-registry "
                    f"prefix '{early}' shadows the later entry with prefix "
                    f"'{later}' (line {later_line}) — parse() dispatches on "
                    f"the first matching prefix, so the later entry is "
                    f"unreachable; register the longer prefix first")
    return findings


def check_coroutine_lambdas(path: Path, raw: str, text: str) -> list[str]:
    """U7: a capturing lambda whose body is a coroutine.

    The captures live in the closure object, not in the coroutine frame;
    program factories build sim::Task values from temporary lambdas, so
    every capture dangles after the first suspension.  The safe idiom is a
    non-coroutine lambda that calls a free coroutine function.
    """
    findings = []
    for m in LAMBDA_INTRO.finditer(text):
        captures = m.group(1).strip()
        if not captures or _suppressed(raw, text, m.start()):
            continue
        body_open = m.end() - 1
        if CO_KEYWORD.search(text, body_open, _matching_brace(text, body_open)):
            findings.append(
                f"{path}:{line_of(text, m.start())}: "
                f"[capturing-coroutine-lambda] capturing coroutine lambda "
                f"[{captures}] — captures outlive only the closure, not the "
                f"coroutine frame; call a free coroutine function instead")
    return findings


def task_functions(files_text: dict[Path, str]) -> set[str]:
    """Names of every function declared as returning sim::Task."""
    names = set()
    for text in files_text.values():
        names.update(TASK_DECL.findall(text))
    # Task member/utility names that are not coroutine factories.
    return names - {"Task", "get_return_object"}


def check_discarded_tasks(path: Path, raw: str, text: str,
                          tasks: set[str]) -> list[str]:
    """U8: a sim::Task-returning call used as a bare statement.

    The call creates a suspended coroutine and destroys it at the
    semicolon: the task silently never runs.  Tasks must be co_await-ed,
    spawned on a Runtime, or stored.
    """
    findings = []
    for name in sorted(tasks):
        for m in re.finditer(rf"(^|[;{{}}])\s*(?P<call>(?:\w+::)?{name}\s*\()",
                             text, re.M):
            start = m.start("call")
            if TASK_CONSUMER.search(text[max(0, start - 80):start].strip()):
                continue
            # Only a call closed by `;` is a statement; anything else is a
            # sub-expression of something that uses the task.
            close = _matching_close(text, text.index("(", start), "()")
            if text[close:close + 1] != ";" or _suppressed(raw, text, start):
                continue
            findings.append(
                f"{path}:{line_of(text, start)}: [discarded-task] result of "
                f"coroutine '{name}(...)' is discarded — the task is "
                f"destroyed before it ever runs; co_await it, spawn() it, "
                f"or store it")
    return findings


def _matching_open(text: str, close_idx: int, pair: str) -> int:
    """Index of the bracket opening the `pair[1]` at close_idx."""
    depth = 0
    for i in range(close_idx, -1, -1):
        if text[i] == pair[1]:
            depth += 1
        elif text[i] == pair[0]:
            depth -= 1
            if depth == 0:
                return i
    return 0


def _function_head(text: str, brace: int) -> str | None:
    """The declaration head (return type and name, qualifiers and trailing
    return type, parameters left out) when the `{` at `brace` opens a
    function or lambda body; None for any other block."""
    head = text[max(0, brace - 4000):brace].rstrip()
    suffix = ""
    while m := HEAD_SUFFIX.search(head):
        suffix = head[m.start():] + suffix
        head = head[:m.start()].rstrip()
    if head.endswith("]"):  # lambda without a parameter list
        return head[_matching_open(head, len(head) - 1, "[]"):] + suffix
    if not head.endswith(")"):
        return None
    before = head[:_matching_open(head, len(head) - 1, "()")].rstrip()
    word = re.search(r"(\w+)\s*$", before)
    if word and word.group(1) in CONTROL_WORDS:
        return None
    start = max(before.rfind(c) for c in ";{}") + 1
    return before[start:] + suffix


class _Bodies:
    """Finds the innermost function or lambda body around a position."""

    def __init__(self, text: str):
        self.text = text
        self.pairs = []  # (open, close) of every brace pair
        stack = []
        for i, c in enumerate(text):
            if c == "{":
                stack.append(i)
            elif c == "}" and stack:
                self.pairs.append((stack.pop(), i))
        self.heads = {}

    def around(self, idx: int):
        """(open, close, head) of the innermost body containing idx."""
        for open_idx, close in sorted(
                (p for p in self.pairs if p[0] < idx < p[1]), reverse=True):
            if open_idx not in self.heads:
                self.heads[open_idx] = _function_head(self.text, open_idx)
            if self.heads[open_idx] is not None:
                return open_idx, close, self.heads[open_idx]
        return None


def check_streams_in_coroutines(path: Path, raw: str, text: str) -> list[str]:
    """U9: a string stream declared in a coroutine body.

    Every local of a coroutine body lives in its heap-allocated frame for
    the coroutine's whole life, so a std::ostringstream (376 bytes) there
    bloats each rank program's frame even on the path that never formats.
    A coroutine is a body declared to return sim::Task (Task) or one that
    uses co_await / co_yield / co_return itself, not only in a nested
    lambda.  Format in a plain helper function; SPB_REQUIRE and
    SPB_CHECK_MSG already format out of line.
    """
    decls = [m for m in STREAM_DECL.finditer(text)
             if not _suppressed(raw, text, m.start())]
    if not decls:
        return []
    bodies = _Bodies(text)
    findings = []
    for m in decls:
        body = bodies.around(m.start())
        if body is None:
            continue
        is_task = re.search(r"\bTask\b", body[2]) is not None
        suspends = any(bodies.around(k.start()) == body
                       for k in CO_KEYWORD.finditer(text, body[0], body[1]))
        if not (is_task or suspends):
            continue
        findings.append(
            f"{path}:{line_of(text, m.start())}: [stream-in-coroutine] "
            f"std::{m.group(1)} '{m.group(2)}' declared in a coroutine "
            f"body — it lives in the coroutine's heap frame for the whole "
            f"run; format in a plain helper function instead")
    return findings


def check_flag_static_asserts(files_text: dict[Path, str]) -> list[str]:
    """U4: each zero-cost feature flag has a default-off static_assert."""
    corpus = "\n".join(files_text.values())
    findings = []
    for flag in REQUIRED_FLAG_ASSERTS:
        pattern = re.compile(
            r"static_assert\s*\([^;]*RunOptions\s*\{\s*\}\s*\.\s*" + flag,
            re.S)
        if not pattern.search(corpus):
            findings.append(
                f"(tree): [flag-static-asserts] no static_assert proves "
                f"RunOptions{{}}.{flag} defaults to off — a stray default "
                f"would tax every simulated send; add one (see "
                f"bench/util.h)")
    return findings


def collect_files(roots: list[str]) -> list[Path]:
    files = []
    for d in roots:
        p = Path(d)
        if p.is_file():
            files.append(p)
        else:
            files.extend(sorted(p.rglob("*.cpp")))
            files.extend(sorted(p.rglob("*.h")))
    return files


def run(roots: list[str]) -> tuple[list[str], int]:
    """Returns (findings, files scanned)."""
    files = collect_files(roots)
    raws = {f: f.read_text(encoding="utf-8", errors="replace") for f in files}
    texts = {f: strip_comments(raws[f]) for f in files}
    tasks = task_functions(texts)
    findings = []
    for f in files:
        findings.extend(check_unordered_iteration(f, raws[f], texts[f]))
        findings.extend(check_banned_randomness(f, raws[f], texts[f]))
        findings.extend(check_guard_across_suspend(f, raws[f], texts[f]))
        findings.extend(check_mutable_static_state(f, raws[f], texts[f]))
        findings.extend(check_registry_catalogue(f, raws[f], texts[f]))
        findings.extend(check_coroutine_lambdas(f, raws[f], texts[f]))
        findings.extend(check_discarded_tasks(f, raws[f], texts[f], tasks))
        findings.extend(check_streams_in_coroutines(f, raws[f], texts[f]))
    findings.extend(check_flag_static_asserts(texts))
    return findings, len(files)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        doc = sys.modules[__package__].__doc__ if __package__ else __doc__
        print(doc)
        return 2
    findings, n = run(argv[1:])
    for finding in findings:
        print(finding)
    print(f"spb_lint: {n} files, {len(findings)} finding(s)")
    return 1 if findings else 0
