#!/usr/bin/env python3
"""Determinism linter for the gsmb tree.

The repo's headline guarantee is that retained pairs are bit-identical
across executors, thread counts and shard counts. The compiler cannot see
that contract, and the class of bug that breaks it is always one of a
handful of source patterns. This linter rejects those patterns at review
time instead of waiting for a flaky paper_shape run:

  unordered-iteration-into-output
      Iterating a std::unordered_map/std::unordered_set directly into an
      output sink (snapshot bytes, CSV rows, retained-pair vectors).
      Hash-table iteration order depends on insertion history, seed and
      libstdc++ version; anything written in that order is
      nondeterministic. Collect-then-sort (a std::sort within the next
      few lines) is the sanctioned fix and is recognised.

  raw-random
      rand()/srand(), std::random_device, time-seeded engines, or a bare
      std::mt19937/std::default_random_engine outside src/util/random*.
      All randomness must flow through util/random's seeded Rng so a run
      is reproducible from its JobSpec seed.

  raw-thread
      std::thread or `#pragma omp` outside src/util/ (tests are exempt:
      stress tests deliberately race components with bare threads).
      Hand-rolled threading bypasses ThreadPool/ParallelFor and with them
      the DeterministicChunks merge discipline.

  float-reduction
      `x += ...` / `x -= ...` on a float/double declared OUTSIDE a
      ParallelFor worker lambda but modified inside it. FP addition is
      not associative, so a shared accumulator folded in worker order
      gives different bits on different thread counts. Reductions must
      write per-chunk slots and be folded in chunk order (see
      DeterministicChunks in util/thread_pool.h).

  raw-clock
      std::chrono (or clock_gettime/gettimeofday) outside the sanctioned
      clock owners: src/obs/ (the telemetry subsystem), src/util/
      (Stopwatch) and bench/ (benchmarks time themselves by design).
      Scattered clock reads become scattered timing side channels that
      leak into output ordering decisions and make perf numbers
      incomparable; time pipeline phases with obs::ScopedPhase /
      GSMB_SPAN or a util/stopwatch.h Stopwatch instead.

  raw-console
      std::cout/std::cerr/std::clog inside the library proper (src/ and
      include/). Library code must not write to the process streams: ad
      hoc prints interleave nondeterministically across threads, corrupt
      machine-read stdout (reports, explain JSON, retained CSVs piped
      through the CLI) and bypass the structured event log. Emit
      GSMB_LOG_* events (gsmb/log.h) instead; tools, benchmarks,
      examples and tests own their streams and are exempt.

  raw-process
      fork()/exec*/system()/popen()/posix_spawn()/socket() outside the
      sanctioned process owners, tools/ and tests/. No library directory
      may spawn processes or open sockets: a library that does is
      impossible to reason about for determinism (child scheduling,
      environment inheritance, network timing) and for sandboxing.
      Parallelism inside the library is threads (util/thread_pool.h);
      fanning work out across processes is the caller's business.

Escape hatch: the marker

    // gsmb-lint: allow(<rule>)

on the flagged line or the line directly above it suppresses that rule
there; a marker whose line also contains the word "file-wide" waives the
rule for the whole file. Use it with a rationale comment; the reviewer
sees the marker.

Usage:
    lint_determinism.py [--root DIR] [paths...]   # lint tree or files
    lint_determinism.py --self-test               # run on the fixtures

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

RULES = (
    "unordered-iteration-into-output",
    "raw-random",
    "raw-thread",
    "float-reduction",
    "raw-clock",
    "raw-console",
    "raw-process",
)

# Directories scanned by default, relative to the repo root.
DEFAULT_DIRS = ("src", "include", "tools", "examples", "bench", "tests")

SOURCE_EXTENSIONS = (".cc", ".h")

ALLOW_RE = re.compile(r"gsmb-lint:\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

# ---------------------------------------------------------------------------
# Helpers


def strip_strings_and_comments(line):
    """Blanks out string/char literals and // comments so patterns inside
    them never match (the allow() marker is extracted separately)."""
    out = []
    i = 0
    n = len(line)
    in_string = None
    while i < n:
        c = line[i]
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == in_string:
                in_string = None
            i += 1
            continue
        if c in "\"'":
            in_string = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is a comment
        out.append(c)
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line_no, self.rule,
                                   self.message)


def allowed_rules(raw_lines):
    """Maps line number (1-based) -> set of rules allowed on that line;
    the key 0 holds file-wide allows (markers on comment-only lines
    before any code, or explicitly labelled file-wide)."""
    per_line = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        per_line.setdefault(idx, set()).update(rules)
        if "file-wide" in line:
            # An explicit file-wide waiver (e.g. in a stress test that
            # races components on purpose): applies to the whole file.
            per_line.setdefault(0, set()).update(rules)
    return per_line


def is_allowed(allow_map, line_no, rule):
    if rule in allow_map.get(0, set()):
        return True
    # The marker may sit on the flagged line or the line just above it.
    return (rule in allow_map.get(line_no, set())
            or rule in allow_map.get(line_no - 1, set()))


# ---------------------------------------------------------------------------
# Rule: unordered-iteration-into-output

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{]*>\s*[&*]?\s*(\w+)\s*[;={(,)]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*:\s*\*?([A-Za-z_][\w.\->]*)\s*\)")
OUTPUT_SINK_RE = re.compile(
    r"\bPut(?:U8|U32|U64|F64|String|Bytes)\b|<<|\bWriteRow\b|\bfprintf\b"
    r"|\.write\s*\(|\bAppendRow\b")
SORT_RE = re.compile(r"\b(?:std::)?(?:stable_)?sort\s*\(")
# Lines after the loop head scanned for a sink / a sanitising sort.
BODY_WINDOW = 8
SORT_WINDOW = 14


def collect_unordered_names(tree_lines_by_path):
    """All identifiers declared anywhere in the scanned set with an
    unordered container type — members included, so `shard.aggregates`
    in one file is recognised via session.h's declaration."""
    names = set()
    for lines in tree_lines_by_path.values():
        for line in lines:
            code = strip_strings_and_comments(line)
            for m in UNORDERED_DECL_RE.finditer(code):
                names.add(m.group(1))
    return names


def check_unordered_iteration(path, raw_lines, allow_map, unordered_names,
                              findings):
    rule = "unordered-iteration-into-output"
    for idx, line in enumerate(raw_lines, start=1):
        code = strip_strings_and_comments(line)
        m = RANGE_FOR_RE.search(code)
        if not m:
            continue
        target = m.group(1)
        # `obj.member`, `obj->member` or plain `name`: match the last
        # component against the declared-unordered identifiers.
        leaf = re.split(r"\.|->", target)[-1]
        if leaf not in unordered_names:
            continue
        body = [
            strip_strings_and_comments(raw_lines[j])
            for j in range(idx, min(idx + BODY_WINDOW, len(raw_lines)))
        ]
        if not any(OUTPUT_SINK_RE.search(b) for b in body):
            continue  # folds into an order-insensitive value: fine
        lookahead = [
            strip_strings_and_comments(raw_lines[j])
            for j in range(idx, min(idx + SORT_WINDOW, len(raw_lines)))
        ]
        if any(SORT_RE.search(b) for b in lookahead):
            continue  # collect-then-sort: sanctioned
        if is_allowed(allow_map, idx, rule):
            continue
        findings.append(
            Finding(
                path, idx, rule,
                "range-for over unordered container '%s' feeds an output "
                "sink; hash order is nondeterministic — collect keys, "
                "std::sort, then emit" % target))


# ---------------------------------------------------------------------------
# Rule: raw-random

RAW_RANDOM_PATTERNS = (
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::default_random_engine\b"),
     "std::default_random_engine"),
    (re.compile(r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?)\b"),
     "bare standard engine"),
    (re.compile(r"seed\s*\(\s*time\s*\(|\(\s*time\s*\(\s*(?:NULL|nullptr|0)"),
     "time-based seed"),
)
RANDOM_EXEMPT_RE = re.compile(r"(^|/)src/util/random\.(cc|h)$|(^|/)util/random\.(cc|h)$")


def check_raw_random(path, raw_lines, allow_map, findings):
    rule = "raw-random"
    if RANDOM_EXEMPT_RE.search(path.replace(os.sep, "/")):
        return
    for idx, line in enumerate(raw_lines, start=1):
        code = strip_strings_and_comments(line)
        for pattern, what in RAW_RANDOM_PATTERNS:
            if pattern.search(code) and not is_allowed(allow_map, idx, rule):
                findings.append(
                    Finding(
                        path, idx, rule,
                        "%s outside util/random: all randomness must be "
                        "reproducible from the JobSpec seed via gsmb::Rng"
                        % what))
                break


# ---------------------------------------------------------------------------
# Rule: raw-thread

RAW_THREAD_RE = re.compile(r"\bstd::thread\b|\bstd::jthread\b")
OMP_RE = re.compile(r"#\s*pragma\s+omp\b")


def thread_exempt(path):
    p = path.replace(os.sep, "/")
    return "/util/" in p or p.startswith("util/") or "/tests/" in p \
        or p.startswith("tests/")


def check_raw_thread(path, raw_lines, allow_map, findings):
    rule = "raw-thread"
    if thread_exempt(path):
        return
    for idx, line in enumerate(raw_lines, start=1):
        code = strip_strings_and_comments(line)
        if (RAW_THREAD_RE.search(code) or OMP_RE.search(code)) \
                and not is_allowed(allow_map, idx, rule):
            findings.append(
                Finding(
                    path, idx, rule,
                    "raw threading outside util/: use ThreadPool/"
                    "ParallelFor so chunking stays deterministic"))


# ---------------------------------------------------------------------------
# Rule: float-reduction

FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:=|;|\{)")
PARALLEL_FOR_RE = re.compile(r"\bParallelFor\s*\(")
LAMBDA_RE = re.compile(r"\[[^\]]*&[^\]]*\]")
COMPOUND_ASSIGN_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*[+\-]=")


def check_float_reduction(path, raw_lines, allow_map, findings):
    rule = "float-reduction"
    code_lines = [strip_strings_and_comments(l) for l in raw_lines]

    for idx, code in enumerate(code_lines, start=1):
        if not PARALLEL_FOR_RE.search(code):
            continue
        # Find the by-reference lambda opening on this or the next lines,
        # then walk its braces to delimit the worker body.
        open_line = None
        for j in range(idx - 1, min(idx + 2, len(code_lines))):
            if LAMBDA_RE.search(code_lines[j]) and "{" in code_lines[j]:
                open_line = j
                break
        if open_line is None:
            continue
        depth = 0
        body_start = open_line
        body_end = open_line
        started = False
        for j in range(open_line, len(code_lines)):
            depth += code_lines[j].count("{") - code_lines[j].count("}")
            if not started and "{" in code_lines[j]:
                started = True
            if started and depth <= 0:
                body_end = j
                break
        else:
            body_end = len(code_lines) - 1

        # Floats declared inside the lambda are thread-local: fine.
        local_floats = set()
        for j in range(body_start, body_end + 1):
            for m in FLOAT_DECL_RE.finditer(code_lines[j]):
                local_floats.add(m.group(1))
        # Floats declared before the lambda in this file are candidates
        # for a shared captured accumulator.
        outer_floats = set()
        for j in range(0, body_start):
            for m in FLOAT_DECL_RE.finditer(code_lines[j]):
                outer_floats.add(m.group(1))

        for j in range(body_start, body_end + 1):
            line_no = j + 1
            line_code = code_lines[j]
            for m in COMPOUND_ASSIGN_RE.finditer(line_code):
                name = m.group(1)
                if name in local_floats or name not in outer_floats:
                    continue
                # Indexed writes (per-chunk slots like sums[c] += ...)
                # are the sanctioned pattern; COMPOUND_ASSIGN_RE already
                # rejects them via its lookbehind, but a subscript between
                # name and operator (name[i] +=) still reaches here.
                if "[" in line_code[m.start():m.end()]:
                    continue
                if is_allowed(allow_map, line_no, rule):
                    continue
                findings.append(
                    Finding(
                        path, line_no, rule,
                        "float accumulator '%s' shared across ParallelFor "
                        "workers: FP addition is not associative, so the "
                        "result depends on the thread count — accumulate "
                        "into per-chunk slots and fold them in chunk order "
                        "(DeterministicChunks)" % name))


# ---------------------------------------------------------------------------
# Rule: raw-clock

RAW_CLOCK_PATTERNS = (
    (re.compile(r"\bstd::chrono\b"), "std::chrono"),
    (re.compile(r"\b(?:steady|system|high_resolution)_clock\b"),
     "standard clock type"),
    (re.compile(r"\bclock_gettime\s*\(|\bgettimeofday\s*\("),
     "POSIX clock call"),
)


def clock_exempt(path):
    p = path.replace(os.sep, "/")
    # The sanctioned clock owners: the telemetry subsystem, util/ (the
    # Stopwatch), and benchmarks (which time themselves by design).
    for d in ("obs", "util", "bench"):
        if "/%s/" % d in p or p.startswith(d + "/"):
            return True
    return False


def check_raw_clock(path, raw_lines, allow_map, findings):
    rule = "raw-clock"
    if clock_exempt(path):
        return
    for idx, line in enumerate(raw_lines, start=1):
        code = strip_strings_and_comments(line)
        for pattern, what in RAW_CLOCK_PATTERNS:
            if pattern.search(code) and not is_allowed(allow_map, idx, rule):
                findings.append(
                    Finding(
                        path, idx, rule,
                        "%s outside src/obs//src/util//bench: time phases "
                        "with obs::ScopedPhase or GSMB_SPAN (gsmb/"
                        "telemetry.h), or a util/stopwatch.h Stopwatch"
                        % what))
                break


# ---------------------------------------------------------------------------
# Rule: raw-console

RAW_CONSOLE_RE = re.compile(r"\bstd::(?:cout|cerr|clog)\b")


def console_scoped(path):
    p = path.replace(os.sep, "/")
    # Only the library proper: tools, benchmarks, examples and tests own
    # their process streams by design. Fixtures pass through lint_files
    # with a tools/-relative path, so scope by prefix, not substring.
    return p.startswith(("src/", "include/")) or "/lint_fixtures/" in p \
        or p.startswith("lint_fixtures/")


def check_raw_console(path, raw_lines, allow_map, findings):
    rule = "raw-console"
    if not console_scoped(path):
        return
    for idx, line in enumerate(raw_lines, start=1):
        code = strip_strings_and_comments(line)
        if RAW_CONSOLE_RE.search(code) and not is_allowed(allow_map, idx,
                                                          rule):
            findings.append(
                Finding(
                    path, idx, rule,
                    "std::cout/std::cerr in library code: process streams "
                    "interleave across threads and corrupt machine-read "
                    "stdout — emit a GSMB_LOG_* event (gsmb/log.h) instead"))


# ---------------------------------------------------------------------------
# Rule: raw-process

RAW_PROCESS_PATTERNS = (
    (re.compile(r"(?<![\w:])v?fork\s*\("), "fork()"),
    (re.compile(r"(?<![\w:])exec[lv][pe]{0,2}\s*\("), "exec*()"),
    (re.compile(r"\bstd::system\s*\(|(?<![\w.:])system\s*\("), "system()"),
    (re.compile(r"(?<![\w:])popen\s*\("), "popen()"),
    (re.compile(r"\bposix_spawnp?\s*\("), "posix_spawn()"),
    (re.compile(r"(?<![\w:])socket\s*\("), "socket()"),
)


def process_exempt(path):
    p = path.replace(os.sep, "/")
    # The sanctioned process owners: the CLI / developer tools and tests.
    # Lint fixtures stay in scope so the self-test can trip the rule.
    if "/lint_fixtures/" in p or p.startswith("lint_fixtures/"):
        return False
    for d in ("tools", "tests"):
        if "/%s/" % d in p or p.startswith(d + "/"):
            return True
    return False


def check_raw_process(path, raw_lines, allow_map, findings):
    rule = "raw-process"
    if process_exempt(path):
        return
    for idx, line in enumerate(raw_lines, start=1):
        code = strip_strings_and_comments(line)
        for pattern, what in RAW_PROCESS_PATTERNS:
            if pattern.search(code) and not is_allowed(allow_map, idx, rule):
                findings.append(
                    Finding(
                        path, idx, rule,
                        "%s outside tools//tests: library code must not "
                        "spawn processes or open sockets — parallelise "
                        "with threads (util/thread_pool.h) and leave "
                        "process fan-out to the caller" % what))
                break


# ---------------------------------------------------------------------------
# Driver

def lint_files(paths, root):
    """Returns the finding list for `paths` (absolute or root-relative)."""
    tree = {}
    for path in paths:
        full = path if os.path.isabs(path) else os.path.join(root, path)
        try:
            with open(full, "r", encoding="utf-8", errors="replace") as f:
                tree[os.path.relpath(full, root)] = f.read().splitlines()
        except OSError as e:
            raise SystemExit("lint_determinism: cannot read %s: %s"
                             % (full, e))

    unordered_names = collect_unordered_names(tree)
    findings = []
    for rel, raw_lines in sorted(tree.items()):
        allow_map = allowed_rules(raw_lines)
        check_unordered_iteration(rel, raw_lines, allow_map, unordered_names,
                                  findings)
        check_raw_random(rel, raw_lines, allow_map, findings)
        check_raw_thread(rel, raw_lines, allow_map, findings)
        check_float_reduction(rel, raw_lines, allow_map, findings)
        check_raw_clock(rel, raw_lines, allow_map, findings)
        check_raw_console(rel, raw_lines, allow_map, findings)
        check_raw_process(rel, raw_lines, allow_map, findings)
    return findings


def default_paths(root):
    out = []
    for d in DEFAULT_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


# ---------------------------------------------------------------------------
# Self-test over the fixtures

def self_test(root):
    """Runs the linter over tools/lint_fixtures: each bad_<rule>.cc must
    trip exactly its rule; good.cc and allowed.cc must be clean."""
    fixtures = os.path.join(root, "tools", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print("self-test: fixture directory missing: %s" % fixtures)
        return 2

    failures = []

    def expect(name, expected_rules):
        path = os.path.join(fixtures, name)
        findings = lint_files([path], root)
        got = sorted({f.rule for f in findings})
        if got != sorted(expected_rules):
            failures.append("%s: expected rules %s, got %s (%s)"
                            % (name, sorted(expected_rules), got,
                               "; ".join(str(f) for f in findings) or "clean"))

    expect("bad_unordered_output.cc", ["unordered-iteration-into-output"])
    expect("bad_raw_random.cc", ["raw-random"])
    expect("bad_raw_thread.cc", ["raw-thread"])
    expect("bad_float_reduction.cc", ["float-reduction"])
    expect("bad_raw_clock.cc", ["raw-clock"])
    expect("bad_raw_console.cc", ["raw-console"])
    expect("bad_raw_process.cc", ["raw-process"])
    expect("good.cc", [])
    expect("allowed.cc", [])

    if failures:
        print("self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("self-test passed: 7 bad fixtures tripped their rule, "
          "2 clean fixtures stayed clean")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="gsmb determinism linter (see module docstring)")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: the whole tree)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the fixtures and verify each rule fires")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root
        or os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    if args.self_test:
        return self_test(root)

    paths = args.paths or default_paths(root)
    # Never lint the fixtures as part of the tree: they are bad on purpose.
    paths = [p for p in paths
             if "lint_fixtures" not in p.replace(os.sep, "/")]
    findings = lint_files(paths, root)
    for finding in findings:
        print(finding)
    if findings:
        print("\n%d finding(s). Fix the pattern or annotate the line with "
              "// gsmb-lint: allow(<rule>) plus a rationale." % len(findings))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
