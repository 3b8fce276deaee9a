#!/usr/bin/env python3
"""widx-lint: repo-specific concurrency invariant checker.

Checks (names usable in suppressions):

  atomic-order   Every std::atomic load/store/RMW in the tree must
                 name an explicit std::memory_order argument. An
                 implicit seq_cst on a hot path is almost always an
                 unexamined default, not a decision.

  blocking       Functions tagged `// widx-lint: event-loop` may not
                 acquire mutexes, wait on condition variables, or
                 sleep. The epoll loop's only blocking point is the
                 poll itself; anything else stalls every connection.

  seqlock        Functions tagged `// widx-lint: seqlock-writer` must
                 follow the writer protocol: the first seq write
                 publishes an odd value (`... + 1`), the last the
                 matching even value (`... + 2`), both with release
                 order, and at least one relaxed payload store lands
                 between them. A seq write is a store, or a
                 compare_exchange (its desired value and success
                 order, which may be acq_rel) such as a writer that
                 claims its slot from an older even value.

  padded         Struct types named `*Slot` or tagged
                 `// widx-lint: padded` must carry alignas(64) /
                 alignas(kCacheBlockBytes) so two hot slots never
                 share a cache line.

  epoch-guard    Chain steps — calls to `nodeNext(...)` or
                 `bucketHeadFor(...)`, the two accessors that follow
                 a pointer another thread may be retiring — must sit
                 inside the scope of a `// widx-lint: epoch-guard`
                 marker stating who holds the epoch pin. The marker
                 covers from its target line to the end of the
                 enclosing brace scope. A marker needs a
                 justification (`-- <who holds the pin>`), and a
                 marker whose scope contains no chain step is stale
                 and reported. Accessor *definitions* (the name at
                 the start of a line, per house style) are exempt —
                 the obligation is the caller's.

Tags mark the construct on the next code line, and may carry a
`-- reason` suffix (mandatory for epoch-guard):

  // widx-lint: event-loop        (before a function definition)
  // widx-lint: seqlock-writer    (before a function definition)
  // widx-lint: padded            (before a struct definition)
  // widx-lint: epoch-guard -- why  (before a chain-step scope)

Suppressions carry a mandatory justification after ` -- `:

  code();  // widx-lint: allow(blocking) -- why this one is fine

  // widx-lint: allow(blocking) -- why the next line is fine
  // (continuation comment lines do not consume the target)
  code();

A suppression without a justification, or naming an unknown check,
is itself reported (check name `bad-suppression`) and cannot be
suppressed.

Engine: a built-in lexer (comment/string-aware) computes all
findings; when the libclang python bindings are importable
(`--engine auto`, the default, or `--engine clang`), atomic-order
findings are additionally confirmed against the AST — a flagged call
is kept only if libclang agrees the callee is a member of
std::atomic / std::atomic_flag, which filters look-alike methods on
non-atomic types. libclang can only remove findings, never add them,
so corpus expectations are engine-independent. `--engine lexer`
skips the AST pass entirely.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

CHECKS = ("atomic-order", "blocking", "seqlock", "padded",
          "epoch-guard")
SOURCE_EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")

TAG_RE = re.compile(r"widx-lint:\s*(.*)$")
TAG_BODY_RE = re.compile(
    r"^(event-loop|seqlock-writer|padded|epoch-guard)"
    r"(?:\s*--\s*(\S.*))?$", re.S)
ALLOW_RE = re.compile(
    r"allow\(([a-z-]+)\)\s*(?:--\s*(\S.*))?$"
)

ATOMIC_CALL_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and"
    r"|fetch_or|fetch_xor|compare_exchange_weak"
    r"|compare_exchange_strong)\s*\("
)

BLOCKING_PATTERNS = (
    (re.compile(r"\bMutexLock\b"), "MutexLock"),
    (re.compile(r"\b(?:std::)?lock_guard\b"), "std::lock_guard"),
    (re.compile(r"\b(?:std::)?unique_lock\b"), "std::unique_lock"),
    (re.compile(r"\b(?:std::)?scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\.\s*lock\s*\("), "mutex .lock()"),
    (re.compile(r"\.\s*wait(?:_for|_until|For|Until)?\s*\("),
     "condition-variable wait"),
    (re.compile(r"\bsleep_(?:for|until)\s*\("), "sleep"),
    (re.compile(r"\b(?:usleep|nanosleep)\s*\("), "sleep"),
)

STRUCT_RE = re.compile(
    r"\b(struct|class)\s+"
    r"(?:alignas\s*\(\s*([A-Za-z0-9_]+)\s*\)\s*)?"
    r"([A-Za-z_]\w*)"
)

STORE_RE = re.compile(r"([A-Za-z_]\w*(?:\s*\.\s*[A-Za-z_]\w*)*)"
                      r"\s*\.\s*(store|compare_exchange_weak"
                      r"|compare_exchange_strong)\s*\(")

PADDED_ALIGNMENTS = ("64", "kCacheBlockBytes")

CHAIN_STEP_RE = re.compile(r"\b(nodeNext|bucketHeadFor)\s*\(")


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def render(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.check,
                                   self.message)


class Comment:
    def __init__(self, line, text, standalone):
        self.line = line  # line the comment starts on
        self.text = text
        self.standalone = standalone  # nothing but whitespace before


def mask_source(text):
    """Blank out comments and string/char literals, preserving line
    structure, and collect the comments.

    Returns (masked_text, comments). Masked text has the same length
    and newline positions as the input; comment and literal bodies
    become spaces so structural regexes can't match inside them.
    """
    out = list(text)
    comments = []
    i = 0
    n = len(text)
    line = 1
    line_has_code = False

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            line += 1
            line_has_code = False
            i += 1
            continue
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments.append(
                Comment(line, text[i:j], not line_has_code))
            blank(i, j)
            i = j
            continue
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            comments.append(
                Comment(line, text[i:j], not line_has_code))
            line += text.count("\n", i, j)
            blank(i, j)
            i = j
            line_has_code = False
            continue
        if c == "R" and nxt == '"':
            m = re.match(r'R"([^()\s\\]*)\(', text[i:])
            if m:
                delim = ")" + m.group(1) + '"'
                j = text.find(delim, i + m.end())
                j = n if j < 0 else j + len(delim)
                line += text.count("\n", i, j)
                blank(i + 2, j - 1)
                i = j
                line_has_code = True
                continue
        if c == '"' or c == "'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
            line_has_code = True
            continue
        if not c.isspace():
            line_has_code = True
        i += 1
    return "".join(out), comments


def line_starts(text):
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def line_of(starts, pos):
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def match_paren(text, open_pos):
    """Position just past the `)` matching the `(` at open_pos, or
    len(text) when unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def match_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


class FileLint:
    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.masked, self.comments = mask_source(text)
        self.starts = line_starts(self.masked)
        self.findings = []
        self.suppressions = {}  # line -> set(check)
        self.tags = []  # (line, kind, reason) for the marker tags
        self._parse_tags()

    def _code_lines(self):
        """Set of 1-based line numbers that carry code."""
        lines = self.masked.split("\n")
        return {i + 1 for i, l in enumerate(lines) if l.strip()}

    def _next_code_line(self, com, code):
        """First code line after a standalone comment; intervening
        comment-only lines do not consume it."""
        last = len(self.starts)
        target = com.line + 1 + com.text.count("\n")
        while target <= last and target not in code:
            target += 1
        return target

    def _parse_tags(self):
        code = self._code_lines()
        for com in self.comments:
            m = TAG_RE.search(com.text)
            if not m:
                continue
            body = m.group(1).strip()
            tm = TAG_BODY_RE.match(body)
            if tm:
                self.tags.append((com.line, tm.group(1),
                                  tm.group(2)))
                continue
            am = ALLOW_RE.match(body)
            if am:
                check, why = am.group(1), am.group(2)
                if check not in CHECKS:
                    self.findings.append(Finding(
                        self.path, com.line, "bad-suppression",
                        "allow(%s) names an unknown check" % check))
                    continue
                if not why:
                    self.findings.append(Finding(
                        self.path, com.line, "bad-suppression",
                        "allow(%s) without a justification "
                        "(`-- <reason>` is mandatory)" % check))
                    continue
                if com.standalone:
                    target = self._next_code_line(com, code)
                else:
                    target = com.line
                self.suppressions.setdefault(
                    target, set()).add(check)
                continue
            self.findings.append(Finding(
                self.path, com.line, "bad-suppression",
                "unrecognized widx-lint directive: %s" % body))

    def _add(self, line, check, message):
        if check in self.suppressions.get(line, ()):
            return
        self.findings.append(
            Finding(self.path, line, check, message))

    # -- regions ----------------------------------------------------

    def _function_region(self, tag_line):
        """(body_start_pos, body_end_pos) of the function following
        the tag, or None."""
        if tag_line >= len(self.starts):
            return None
        pos = self.starts[tag_line]  # start of the line after tag
        brace = self.masked.find("{", pos)
        if brace < 0:
            return None
        return brace, match_brace(self.masked, brace)

    # -- checks -----------------------------------------------------

    def check_atomic_order(self):
        for m in ATOMIC_CALL_RE.finditer(self.masked):
            open_pos = self.masked.index("(", m.end() - 1)
            close = match_paren(self.masked, open_pos)
            args = self.masked[open_pos + 1:close - 1]
            if "memory_order" in args:
                continue
            line = line_of(self.starts, m.start())
            self._add(line, "atomic-order",
                      ".%s() without an explicit memory_order "
                      "argument" % m.group(1))

    def atomic_candidate_lines(self):
        """Lines holding atomic-order findings (pre-suppression),
        for the libclang confirmation pass."""
        return {f.line for f in self.findings
                if f.check == "atomic-order"}

    def check_blocking(self):
        for tag_line, kind, _why in self.tags:
            if kind != "event-loop":
                continue
            region = self._function_region(tag_line)
            if region is None:
                self._add(tag_line, "blocking",
                          "event-loop tag with no function body "
                          "following it")
                continue
            body = self.masked[region[0]:region[1]]
            for pat, what in BLOCKING_PATTERNS:
                for m in pat.finditer(body):
                    line = line_of(self.starts,
                                   region[0] + m.start())
                    self._add(line, "blocking",
                              "%s inside an event-loop function"
                              % what)

    def check_seqlock(self):
        for tag_line, kind, _why in self.tags:
            if kind != "seqlock-writer":
                continue
            region = self._function_region(tag_line)
            if region is None:
                self._add(tag_line, "seqlock",
                          "seqlock-writer tag with no function "
                          "body following it")
                continue
            seq_writes = []   # (pos, value, orders)
            payload = []      # (pos, args)
            body_off = region[0]
            body = self.masked[body_off:region[1]]
            for m in STORE_RE.finditer(body):
                obj = m.group(1)
                open_pos = body.index("(", m.end() - 1)
                close = match_paren(body, open_pos)
                args = body[open_pos + 1:close - 1]
                pos = body_off + m.start()
                leaf = obj.split(".")[-1].strip()
                if "seq" in leaf.lower():
                    # store(value, order) or
                    # compare_exchange(expected, desired, success, ...)
                    parts = [p.strip() for p in args.split(",")]
                    parts += [""] * 3
                    if m.group(2) == "store":
                        seq_writes.append((pos, parts[0], args))
                    else:
                        seq_writes.append((pos, parts[1], parts[2]))
                elif m.group(2) == "store":
                    payload.append((pos, args))
            fn_line = line_of(self.starts, body_off)
            if len(seq_writes) < 2:
                self._add(fn_line, "seqlock",
                          "writer section needs two seq writes "
                          "(odd begin, even end); found %d"
                          % len(seq_writes))
                continue
            first, last = seq_writes[0], seq_writes[-1]
            if not re.search(r"\+\s*1$", first[1]):
                self._add(line_of(self.starts, first[0]), "seqlock",
                          "first seq write must publish an odd "
                          "value (expression ending `+ 1`)")
            if not re.search(r"\+\s*2$", last[1]):
                self._add(line_of(self.starts, last[0]), "seqlock",
                          "final seq write must publish the even "
                          "value (expression ending `+ 2`)")
            for pos, _value, orders in (first, last):
                if "memory_order_release" not in orders and \
                        "memory_order_acq_rel" not in orders:
                    self._add(line_of(self.starts, pos), "seqlock",
                              "seq writes must use "
                              "memory_order_release (or acq_rel "
                              "on a compare_exchange)")
            inner = [p for p in payload
                     if first[0] < p[0] < last[0]
                     and "memory_order_relaxed" in p[1]]
            if not inner:
                self._add(fn_line, "seqlock",
                          "no relaxed payload store between the "
                          "odd and even seq bumps")

    def check_padded(self):
        padded_lines = {t[0] for t in self.tags if t[1] == "padded"}
        code = self._code_lines()
        claimed = set()
        for m in STRUCT_RE.finditer(self.masked):
            # Skip forward declarations and `friend class X;`.
            rest = self.masked[m.end():].lstrip()
            if rest.startswith(";"):
                continue
            line = line_of(self.starts, m.start())
            tagged = None
            for t in padded_lines:
                if t < line and all(
                        l not in code for l in range(t + 1, line)):
                    tagged = t
            name = m.group(3)
            if tagged is None and not name.endswith("Slot"):
                continue
            if tagged is not None:
                claimed.add(tagged)
            align = m.group(2)
            if align not in PADDED_ALIGNMENTS:
                why = ("tagged `widx-lint: padded`"
                       if tagged is not None
                       else "named *Slot")
                self._add(line, "padded",
                          "struct %s is %s but lacks alignas(64) / "
                          "alignas(kCacheBlockBytes)" % (name, why))
        for t in padded_lines - claimed:
            self._add(t, "padded",
                      "padded tag with no struct definition "
                      "following it")

    def _line_depths(self):
        """Brace depth at the start of each 1-based line."""
        depths = [0] * (len(self.starts) + 2)
        d = 0
        line = 1
        for c in self.masked:
            if c == "\n":
                line += 1
                depths[line] = d
            elif c == "{":
                d += 1
            elif c == "}":
                d -= 1
        return depths

    def check_epoch_guard(self):
        code = self._code_lines()
        last = len(self.starts)
        depths = self._line_depths()
        guards = []  # (tag_line, cover_from, cover_to)
        for tag_line, kind, why in self.tags:
            if kind != "epoch-guard":
                continue
            if not why:
                self._add(tag_line, "epoch-guard",
                          "epoch-guard marker without a "
                          "justification (`-- <who holds the pin>` "
                          "is mandatory)")
            target = tag_line + 1
            while target <= last and target not in code:
                target += 1
            if target > last:
                self._add(tag_line, "epoch-guard",
                          "epoch-guard marker with no code "
                          "following it")
                continue
            # Cover from the target to the end of its brace scope.
            d = depths[target]
            end = target
            while end + 1 <= last and depths[end + 1] >= d:
                end += 1
            guards.append((tag_line, tag_line, end))
        used = set()
        for m in CHAIN_STEP_RE.finditer(self.masked):
            line = line_of(self.starts, m.start())
            # The accessor's own definition (name at the start of
            # the line, per house style) is not a chain step — but
            # a marker inside its body documents the accessor's
            # load semantics, so the body claims covering guards.
            if not self.masked[self.starts[line - 1]:
                               m.start()].strip():
                brace = self.masked.find("{", m.end())
                if brace >= 0:
                    body_end = line_of(
                        self.starts,
                        match_brace(self.masked, brace) - 1)
                    for g in guards:
                        if line <= g[0] <= body_end:
                            used.add(g[0])
                continue
            hit = False
            for g in guards:
                if g[1] <= line <= g[2]:
                    used.add(g[0])
                    hit = True
            if not hit:
                self._add(line, "epoch-guard",
                          "%s() chain step outside any epoch-guard "
                          "marker's scope" % m.group(1))
        for g in guards:
            if g[0] not in used:
                self._add(g[0], "epoch-guard",
                          "epoch-guard marker whose scope contains "
                          "no chain step (stale?)")

    def run(self):
        self.check_atomic_order()
        self.check_blocking()
        self.check_seqlock()
        self.check_padded()
        self.check_epoch_guard()
        return self.findings


# -- optional libclang confirmation (atomic-order only) -------------

ATOMIC_METHODS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub",
    "fetch_and", "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong",
}


def clang_atomic_lines(path, extra_args):
    """Lines where libclang sees a call to a std::atomic member.

    Returns a set of line numbers, or None when the AST is
    unavailable (bindings missing, parse failure) — in which case
    the caller keeps the lexer findings unfiltered.
    """
    try:
        from clang import cindex
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
        args = ["-x", "c++", "-std=c++20"] + extra_args
        tu = index.parse(path, args=args)
    except Exception:
        return None
    lines = set()

    def walk(node):
        try:
            kind = node.kind
        except ValueError:
            return
        if kind == cindex.CursorKind.CALL_EXPR and \
                node.spelling in ATOMIC_METHODS:
            ref = node.referenced
            parent = ref.semantic_parent if ref else None
            if parent is not None and \
                    parent.spelling in ("atomic", "atomic_flag"):
                if node.location.file and \
                        os.path.samefile(str(node.location.file),
                                         path):
                    lines.add(node.location.line)
        for ch in node.get_children():
            walk(ch)

    walk(tu.cursor)
    return lines


def confirm_atomic_findings(lint, engine, clang_args):
    if engine == "lexer":
        return lint.findings
    confirmed = clang_atomic_lines(lint.path, clang_args)
    if confirmed is None:
        if engine == "clang":
            print("widx-lint: libclang unavailable or failed on %s; "
                  "keeping lexer findings" % lint.path,
                  file=sys.stderr)
        return lint.findings
    return [f for f in lint.findings
            if f.check != "atomic-order" or f.line in confirmed]


# -- driver ---------------------------------------------------------

def collect_sources(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
        else:
            files.append(p)
    return files


def lint_paths(paths, engine, clang_args):
    findings = []
    for path in collect_sources(paths):
        with open(path, "r", encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        lint = FileLint(path, text)
        lint.run()
        findings.extend(
            confirm_atomic_findings(lint, engine, clang_args))
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings


def self_test(corpus_dir, engine, clang_args):
    """Golden-corpus mode: lint every source in corpus_dir and
    compare (file, line, check) triples against expected.txt.

    Always runs the lexer engine regardless of --engine: the corpus
    pins lexer behavior (including the type-blind finding the
    libclang pass exists to filter), so letting the AST pass run
    here would make the golden file depend on which machine has
    python3-clang installed."""
    del engine  # forced below; see docstring
    engine = "lexer"
    expected_path = os.path.join(corpus_dir, "expected.txt")
    expected = set()
    with open(expected_path, "r", encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            loc, check = line.rsplit(" ", 1)
            fname, lno = loc.rsplit(":", 1)
            expected.add((fname, int(lno), check))
    got = set()
    for f in lint_paths([corpus_dir], engine, clang_args):
        got.add((os.path.basename(f.path), f.line, f.check))
    missing = expected - got
    surplus = got - expected
    for t in sorted(missing):
        print("MISSING  %s:%d %s" % t)
    for t in sorted(surplus):
        print("SURPLUS  %s:%d %s" % t)
    if missing or surplus:
        print("self-test FAILED: %d missing, %d surplus findings"
              % (len(missing), len(surplus)))
        return 1
    print("self-test OK: %d expected findings all reproduced"
          % len(expected))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="widx_lint",
        description="repo-specific concurrency invariant checker")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint")
    ap.add_argument("--engine", choices=("auto", "lexer", "clang"),
                    default="auto",
                    help="auto (default): lexer, with libclang "
                         "confirmation of atomic-order findings "
                         "when importable; lexer: no libclang; "
                         "clang: warn when libclang is unusable")
    ap.add_argument("--clang-arg", action="append", default=[],
                    help="extra compile arg for the libclang pass "
                         "(repeatable), e.g. -Isrc")
    ap.add_argument("--self-test", metavar="DIR",
                    help="run the golden-corpus self test on DIR")
    ap.add_argument("--list-checks", action="store_true")
    opts = ap.parse_args(argv)

    if opts.list_checks:
        for c in CHECKS:
            print(c)
        return 0
    if opts.self_test:
        return self_test(opts.self_test, opts.engine, opts.clang_arg)
    if not opts.paths:
        ap.error("no paths given (or use --self-test DIR)")
    findings = lint_paths(opts.paths, opts.engine, opts.clang_arg)
    for f in findings:
        print(f.render())
    if findings:
        print("widx-lint: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
