#!/usr/bin/env python3
"""Determinism / coroutine-lifetime linter for the paxoscp source tree.

Every replay, chaos and availability claim in this repo rests on two
invariants the generic tools (compiler warnings, clang-tidy, sanitizers)
cannot check, because they are *policies*, not language rules:

 1. Determinism: all time comes from sim::Simulator (virtual microseconds),
    all randomness from the seeded common/random Rng. Wall-clock reads,
    libc rand(), std::random_device etc. would make seeded replay lie.
 2. Replay-order stability: iterating an unordered_{map,set} visits
    elements in a hash-seed/layout-dependent order. Any behaviour derived
    from such an iteration (message order, retry order, log append order)
    breaks bit-identical replay across toolchains and ASLR runs.
 3. Coroutine lifetime: a lambda that captures by reference and is handed
    to the event queue (Simulator::ScheduleAfter/ScheduleAt, detached
    Task legs) outlives the enclosing scope; the capture dangles unless
    ownership is explicitly reasoned about. Same
    for `co_await`ing a Coro<T> and silently dropping the T: results in
    this codebase carry commit decisions and statuses, and dropping one
    has hidden a real bug before (decided-but-unapplied, PR 3).

Rules (ids are what LINT:allow annotations name):

  wall-clock            banned wall-clock/time sources in src/
  unseeded-random       banned unseeded randomness sources in src/
  unordered-iter        iteration over an unordered_* container in src/
  pointer-keyed         std::map/std::set keyed by a raw pointer: the
                        comparator is the pointer value, so iteration
                        order tracks allocation addresses (heap layout,
                        ASLR), not seeded state
  ref-capture-schedule  reference-capturing lambda handed to the event
                        queue or a detached coroutine leg
  discarded-coro        bare `co_await Fn(...);` statement discarding a
                        non-void Coro<T> result

Suppressions: a finding is allowed only with an inline justification —

    // LINT:allow(<rule>): <non-empty reason>

on the flagged line or the line directly above it. A reason-less allow is
itself an error; suppressions without justification are how invariants rot.

Usage:
  lint_determinism.py [paths...]         lint files/dirs (default: src/)
  lint_determinism.py --self-test DIR    run the fixture suite under DIR
                                         (must_fail/ + must_pass/)
  lint_determinism.py --list-rules       print rule ids and summaries

Exit codes: 0 clean, 1 findings (or fixture mismatches), 2 usage/IO error.
"""

import argparse
import os
import re
import sys

RULES = {
    "wall-clock": "wall-clock/time source outside the simulator",
    "unseeded-random": "randomness source outside seeded common/random",
    "unordered-iter": "iteration over an unordered_* container",
    "pointer-keyed": "std::map/std::set keyed by a raw pointer",
    "ref-capture-schedule":
        "reference capture handed to the event queue / detached leg",
    "discarded-coro": "co_await discards a non-void Coro<T> result",
}

# Files allowed to implement the sanctioned sources themselves.
EXEMPT_SUFFIXES = (
    os.path.join("common", "random.h"),
    os.path.join("common", "random.cc"),
)

ALLOW_RE = re.compile(r"//\s*LINT:allow\(([a-z-]+)\)\s*:?\s*(.*)")

# --------------------------------------------------------------------------
# Lexical preprocessing: blank out comments and string/char literals while
# preserving line structure, so rule regexes never fire inside either.
# --------------------------------------------------------------------------


def strip_comments_and_strings(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":  # block comment
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == 'R' and nxt == '"':  # raw string literal R"delim(...)delim"
            m = re.match(r'R"([^(]{0,16})\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i + m.end())
            end = n if end == -1 else end + len(m.group(1)) + 2
            for j in range(i, min(end, n)):
                out.append("\n" if text[j] == "\n" else " ")
            i = end
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class File:
    """One source file: raw lines (for annotations), stripped lines and the
    stripped text as a single string (for cross-line rules)."""

    def __init__(self, path, text):
        self.path = path
        self.raw_lines = text.splitlines()
        self.code = strip_comments_and_strings(text)
        self.code_lines = self.code.splitlines()
        # line number (1-based) -> list of (rule, reason). An annotation
        # covers its own line and — skipping comment-only continuation
        # lines (multi-line reasons) — the next line that holds code.
        self.allows = {}
        for idx, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if m:
                self.allows.setdefault(idx, []).append(
                    (m.group(1), m.group(2).strip()))

    def allow_scope(self, allow_line):
        scope = {allow_line}
        for idx in range(allow_line + 1, len(self.code_lines) + 1):
            scope.add(idx)
            if self.code_lines[idx - 1].strip():
                break
        return scope

    def line_of_offset(self, offset):
        return self.code.count("\n", 0, offset) + 1


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# --------------------------------------------------------------------------
# Rule implementations. Each yields (line, rule, message).
# --------------------------------------------------------------------------

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime()"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0|&)"), "time()"),
    (re.compile(r"\bstd::time\b"), "std::time()"),
    (re.compile(r"\blocaltime\b"), "localtime()"),
    (re.compile(r"\bgmtime\b"), "gmtime()"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bthis_thread::sleep_for\b"), "std::this_thread::sleep_for"),
    (re.compile(r"\busleep\s*\("), "usleep()"),
    (re.compile(r"\bnanosleep\s*\("), "nanosleep()"),
]

RANDOM_PATTERNS = [
    (re.compile(r"\brand\s*\(\s*\)"), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\bminstd_rand0?\b"), "std::minstd_rand"),
    (re.compile(r"\branlux(?:24|48)\b"), "std::ranlux"),
]


def check_simple_patterns(f, patterns, rule, hint):
    for lineno, line in enumerate(f.code_lines, start=1):
        for pat, label in patterns:
            if pat.search(line):
                yield (lineno, rule, "%s: %s" % (label, hint))


UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:multi)?(?:map|set)\s*<")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def unordered_variable_names(code):
    """Names of variables/members declared with an unordered_* type.

    Heuristic: after each `unordered_xxx<`, skip the balanced template
    argument list, then take the next identifier as the declarator name.
    Misses aliases/typedefs; catches the way containers are actually
    declared in this codebase and the fixtures.
    """
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        i, depth = m.end(), 1
        n = len(code)
        while i < n and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        rest = code[i:i + 200]
        # Skip refs/pointers/whitespace, then grab the declarator.
        rest = rest.lstrip(" \t\n&*")
        ident = IDENT_RE.match(rest)
        if ident and ident.group(0) not in ("const", "override", "final"):
            names.add(ident.group(0))
    return names


def check_unordered_iter(f):
    names = unordered_variable_names(f.code)
    if not names:
        return
    alt = "|".join(re.escape(x) for x in sorted(names))
    iter_res = [
        re.compile(r"for\s*\([^;)]*:\s*(?:\*?\s*)(%s)\s*\)" % alt),
        re.compile(r"\b(%s)\s*(?:\.|->)\s*c?r?begin\s*\(" % alt),
        re.compile(r"\b(?:std\s*::\s*)?c?begin\s*\(\s*(%s)\s*\)" % alt),
    ]
    for lineno, line in enumerate(f.code_lines, start=1):
        for pat in iter_res:
            m = pat.search(line)
            if m:
                yield (lineno, "unordered-iter",
                       "iterating unordered container '%s': order is "
                       "hash-layout-dependent and breaks seeded replay; use "
                       "std::map / sorted snapshot, or justify" % m.group(1))


ORDERED_ASSOC_RE = re.compile(r"\b(?:std\s*::\s*)?(?:multi)?(?:map|set)\s*<")


def check_pointer_keyed(f):
    """std::map<T*, ...> / std::set<T*>: ordered by address, not by state.

    The \\b in ORDERED_ASSOC_RE cannot match after '_', so unordered_map /
    unordered_set (point lookups are fine, iteration is unordered-iter's
    business) and names like flat_map never reach the key check.
    """
    for m in ORDERED_ASSOC_RE.finditer(f.code):
        # First template argument: scan the balanced argument list up to
        # the first top-level comma (map) or the closing '>' (set).
        i, depth, n = m.end(), 1, len(f.code)
        arg_start = i
        while i < n and depth > 0:
            c = f.code[i]
            if c in "<(":
                depth += 1
            elif c in ">)":
                depth -= 1
            elif c == "," and depth == 1:
                break
            i += 1
        key = f.code[arg_start:i - (0 if i < n and f.code[i] == "," else 1)]
        key = " ".join(key.split())
        if key.endswith("*"):
            yield (f.line_of_offset(m.start()), "pointer-keyed",
                   "container keyed by pointer '%s': comparison is the "
                   "address, so iteration order tracks heap layout/ASLR "
                   "and breaks seeded replay; key by a stable id (the "
                   "store instance_id pattern) or justify" % key)


TASK_DECL_RE = re.compile(r"\b(?:sim\s*::\s*)?Task\s+([A-Za-z_]\w*)\s*\(")
SCHEDULE_CALL_RE = re.compile(r"\b(ScheduleAfter|ScheduleAt)\s*\(")
LAMBDA_RE = re.compile(r"\[([^\[\]]*)\]\s*(?:\([^()]*\))?\s*"
                       r"(?:mutable\s*)?(?:noexcept\s*)?(?:->[^{]+)?\{")
REF_CAPTURE_RE = re.compile(r"(?:^|[,\[])\s*&\s*(?:[A-Za-z_]\w*)?\s*(?:[,\]]|$)")


def balanced_call_extent(code, open_paren):
    """Returns the offset one past the matching ')' for the '(' at
    open_paren, or len(code) if unbalanced."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def spawn_call_sites(f, task_fns):
    """Yields (offset, callee) for every event-queue or detached-leg call."""
    for m in SCHEDULE_CALL_RE.finditer(f.code):
        yield m.start(), m.group(1)
    if task_fns:
        pat = re.compile(r"\b(%s)\s*\(" %
                         "|".join(re.escape(x) for x in sorted(task_fns)))
        for m in pat.finditer(f.code):
            # Skip the declaration/definition itself (preceded by 'Task',
            # possibly with a ClassName:: qualifier in between).
            prefix = f.code[max(0, m.start() - 64):m.start()]
            if re.search(r"\bTask\s+(?:[A-Za-z_]\w*\s*::\s*)?$", prefix):
                continue
            yield m.start(), m.group(1)


def check_ref_capture(f, task_fns):
    for offset, callee in spawn_call_sites(f, task_fns):
        open_paren = f.code.find("(", offset)
        if open_paren == -1:
            continue
        args = f.code[open_paren:balanced_call_extent(f.code, open_paren)]
        for lm in LAMBDA_RE.finditer(args):
            captures = lm.group(1)
            if REF_CAPTURE_RE.search(captures):
                line = f.line_of_offset(offset)
                yield (line, "ref-capture-schedule",
                       "lambda captures by reference ([%s]) but is handed "
                       "to %s(): it runs from the event queue after the "
                       "enclosing scope may be gone; capture by value / "
                       "shared_ptr, or annotate the ownership" %
                       (captures.strip(), callee))


CORO_DECL_RE = re.compile(r"\bCoro\s*<")


def coro_value_fn_names(files):
    """Function names declared as returning Coro<T> with T != void, across
    all linted files (declarations live in headers, calls in .cc)."""
    names = set()
    for f in files:
        for m in CORO_DECL_RE.finditer(f.code):
            i, depth = m.end(), 1
            while i < len(f.code) and depth > 0:
                if f.code[i] == "<":
                    depth += 1
                elif f.code[i] == ">":
                    depth -= 1
                i += 1
            inner = f.code[m.end():i - 1].strip()
            if inner == "void":
                continue
            rest = f.code[i:i + 200]
            dm = re.match(r"\s*(?:[A-Za-z_]\w*\s*::\s*)?([A-Za-z_]\w*)\s*\(",
                          rest)
            if dm:
                names.add(dm.group(1))
    return names


def check_discarded_coro(f, coro_fns):
    if not coro_fns:
        return
    pat = re.compile(
        r"co_await\s+(?:[A-Za-z_]\w*(?:\s*(?:\.|->|::)\s*[A-Za-z_]\w*)*"
        r"(?:\.|->|::)\s*)?(%s)\s*\(" %
        "|".join(re.escape(x) for x in sorted(coro_fns)))
    for m in pat.finditer(f.code):
        # Only bare statements: the previous non-whitespace char must end a
        # statement/block/condition. Assignments, returns, argument
        # positions etc. consume the value.
        before = f.code[:m.start()].rstrip()
        if before and before[-1] not in ";{})":
            continue
        # ... and the call's result must not be consumed after the ')'.
        end = balanced_call_extent(f.code, f.code.find("(", m.end(1)))
        after = f.code[end:end + 2].lstrip()
        if not after.startswith(";"):
            continue
        yield (f.line_of_offset(m.start()), "discarded-coro",
               "co_await %s(...) discards a non-void Coro result; results "
               "carry statuses/decisions — consume it or annotate why the "
               "value is provably redundant here" % m.group(1))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def is_exempt(path):
    norm = os.path.normpath(path)
    return any(norm.endswith(sfx) for sfx in EXEMPT_SUFFIXES)


def collect_files(paths):
    out = []
    for p in paths:
        if os.path.isdir(p):
            for root, _, names in sorted(os.walk(p)):
                for name in sorted(names):
                    if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                        out.append(os.path.join(root, name))
        elif os.path.isfile(p):
            out.append(p)
        else:
            raise OSError("no such file or directory: %s" % p)
    return out


def lint_files(paths):
    """Returns (findings, errors). Errors are annotation-misuse strings."""
    files = []
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            files.append(File(path, fh.read()))

    task_fns = set()
    for f in files:
        for m in TASK_DECL_RE.finditer(f.code):
            task_fns.add(m.group(1))
    coro_fns = coro_value_fn_names(files)

    findings, errors, used_allows = [], [], set()
    for f in files:
        if is_exempt(f.path):
            continue
        raw = []
        raw.extend(check_simple_patterns(
            f, WALL_CLOCK_PATTERNS, "wall-clock",
            "all time must come from sim::Simulator::Now() / virtual delays"))
        raw.extend(check_simple_patterns(
            f, RANDOM_PATTERNS, "unseeded-random",
            "all randomness must come from the seeded common/random Rng"))
        raw.extend(check_unordered_iter(f))
        raw.extend(check_pointer_keyed(f))
        raw.extend(check_ref_capture(f, task_fns))
        raw.extend(check_discarded_coro(f, coro_fns))

        scopes = {line: f.allow_scope(line) for line in f.allows}
        for line, rule, message in raw:
            allowed = False
            for allow_line, entries in f.allows.items():
                if line not in scopes[allow_line]:
                    continue
                for arule, reason in entries:
                    if arule != rule:
                        continue
                    if not reason:
                        errors.append(
                            "%s:%d: LINT:allow(%s) without a reason — a "
                            "suppression must say why it is safe" %
                            (f.path, allow_line, rule))
                    allowed = True
                    used_allows.add((f.path, allow_line, rule))
            if not allowed:
                findings.append(Finding(f.path, line, rule, message))

        for line, entries in f.allows.items():
            for rule, _ in entries:
                if rule not in RULES:
                    errors.append("%s:%d: LINT:allow(%s) names an unknown "
                                  "rule" % (f.path, line, rule))
                elif (f.path, line, rule) not in used_allows:
                    errors.append("%s:%d: stale LINT:allow(%s) — nothing in "
                                  "its scope triggers that rule" %
                                  (f.path, line, rule))
    return findings, errors


EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([a-z-]+)")


def self_test(fixtures_dir):
    must_fail = os.path.join(fixtures_dir, "must_fail")
    must_pass = os.path.join(fixtures_dir, "must_pass")
    if not os.path.isdir(must_fail) or not os.path.isdir(must_pass):
        print("self-test: %s must contain must_fail/ and must_pass/" %
              fixtures_dir, file=sys.stderr)
        return 2

    failures = 0
    for path in collect_files([must_fail]):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        expected = set(EXPECT_RE.findall(text))
        if not expected:
            print("FAIL %s: must_fail fixture lacks an // EXPECT: <rule> "
                  "marker" % path)
            failures += 1
            continue
        findings, errors = lint_files([path])
        got = {fd.rule for fd in findings}
        # Annotation misuse (reason-less or stale allows) surfaces as the
        # pseudo-rule `annotation-error` so fixtures can pin it too.
        if errors:
            got.add("annotation-error")
        if got == expected:
            print("ok   %s (%s)" % (path, ", ".join(sorted(expected))))
        else:
            print("FAIL %s: expected rules %s, got %s%s" %
                  (path, sorted(expected), sorted(got),
                   ("; errors: " + "; ".join(errors)) if errors else ""))
            for fd in findings:
                print("       " + str(fd))
            failures += 1

    for path in collect_files([must_pass]):
        findings, errors = lint_files([path])
        if not findings and not errors:
            print("ok   %s (clean)" % path)
        else:
            print("FAIL %s: expected clean, got:" % path)
            for fd in findings:
                print("       " + str(fd))
            for err in errors:
                print("       " + err)
            failures += 1

    print("self-test: %s" % ("FAILED (%d fixture(s))" % failures
                             if failures else "all fixtures behave"))
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="paxoscp determinism / coroutine-lifetime linter")
    parser.add_argument("paths", nargs="*", help="files or directories "
                        "(default: src/ next to this script's parent)")
    parser.add_argument("--self-test", metavar="DIR",
                        help="run the fixture suite under DIR")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-22s %s" % (rule, RULES[rule]))
        return 0

    if args.self_test:
        return self_test(args.self_test)

    paths = args.paths
    if not paths:
        repo_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        paths = [os.path.join(repo_root, "src")]

    try:
        files = collect_files(paths)
    except OSError as err:
        print("lint_determinism: %s" % err, file=sys.stderr)
        return 2

    findings, errors = lint_files(files)
    for fd in findings:
        print(fd)
    for err in errors:
        print(err)
    if findings or errors:
        print("lint_determinism: %d finding(s), %d annotation error(s) "
              "across %d file(s)" % (len(findings), len(errors), len(files)))
        return 1
    print("lint_determinism: clean (%d file(s))" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
