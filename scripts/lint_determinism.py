#!/usr/bin/env python3
"""Determinism linter: static repo invariants behind the byte-identity claims.

Every bound-conformance result this repo exports rests on sweeps being
byte-identical across thread counts, the fast-path toggle, and campaign
resume. The differential tests check that property dynamically; this linter
checks the source patterns that break it statically, before an unlucky
interleaving has to land in CI:

  unordered-iter   Iteration over std::unordered_map/std::unordered_set
                   (range-for or .begin()/.end() walks). Hash iteration
                   order is implementation- and salt-dependent; anything it
                   feeds (digests, CSV rows, history lines, key() chains)
                   stops being byte-stable. Membership lookups are fine.
  banned-random    std::rand/srand, std::random_device, mt19937 &c. in src/.
                   All randomness must flow from util::Rng seeded by spec
                   digests, or results stop being a pure function of
                   (base_seed, spec).
  banned-time      Wall-clock reads (system_clock, steady_clock, time(),
                   clock(), gettimeofday, localtime, gmtime) in src/.
                   Scenario content must never depend on when it ran. The
                   WallBudget aborter is the one sanctioned consumer
                   (lint:allow'd — it only decides WHEN to abort; aborted
                   rows discard all measurements and retry on resume).
  float-format     Float->string through stream precision state
                   (std::fixed / std::scientific / std::hexfloat /
                   setprecision) or printf %e/%f/%g conversions. Exported
                   floats must go through util::fmt_double (shortest
                   round-trip, locale-independent) so identical bits always
                   produce identical bytes.
  pointer-key      std::map/std::set keyed on a raw pointer type. Pointer
                   order is allocation order; iterating such a container
                   into any output reintroduces address-space nondeterminism
                   (ASLR) that no seed controls.
  source-location  __FILE__, __LINE__, __FILE_NAME__, __builtin_FILE/LINE
                   or std::source_location in src/. Text built from them
                   reaches errored rows' `error` column, whose bytes would
                   then depend on where the repo is checked out and on
                   which line a check sits.

Escape hatch: a comment containing `lint:allow(<rule>[, <rule>...])`
suppresses those rules on its own line and the immediately following line.
Every allow is expected to carry a justification comment nearby.

Usage:
  lint_determinism.py [--root DIR] [PATH...]
      With no PATHs, lints <root>/src recursively (.hpp/.cpp). Explicit
      PATHs (files or directories) are linted instead, verbatim.
  lint_determinism.py --list-rules

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

RULES = {
    "unordered-iter":
        "iteration over an unordered container (hash order is not stable)",
    "banned-random":
        "nondeterministic randomness source (use util::Rng seeded from spec digests)",
    "banned-time":
        "wall-clock read (scenario content must not depend on when it ran)",
    "float-format":
        "float formatted outside util::fmt_double (breaks byte-identity)",
    "pointer-key":
        "ordered container keyed on a pointer (iteration order = allocation order)",
    "source-location":
        "source file/line in program text (output bytes would depend on the checkout)",
}

ALLOW_RE = re.compile(r"lint:allow\(\s*([a-z\-,\s]+?)\s*\)")

BANNED_RANDOM_RE = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bmt19937(?:_64)?\b"
    r"|\bdefault_random_engine\b|\bknuth_b\b|\branlux(?:24|48)\b")

BANNED_TIME_RE = re.compile(
    r"\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b"
    r"|\bgettimeofday\b|\blocaltime\b|\bgmtime\b|\bmktime\b"
    r"|(?<![A-Za-z0-9_])std::time\s*\("
    r"|(?<![A-Za-z0-9_.:>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|(?<![A-Za-z0-9_.:>])clock\s*\(\s*\)")

FLOAT_MANIP_RE = re.compile(
    r"\bstd::fixed\b|\bstd::scientific\b|\bstd::hexfloat\b"
    r"|\bstd::setprecision\b|(?<![A-Za-z0-9_:])setprecision\s*\(")

PRINTF_CALL_RE = re.compile(r"\b(?:printf|fprintf|sprintf|snprintf|vsnprintf)\s*\(")
PRINTF_FLOAT_RE = re.compile(r"%[-+ #0-9.*hlL]*[efgaEFGA]")

POINTER_KEY_RE = re.compile(
    r"\bstd::map\s*<[^,<>]*\*[^,<>]*,|\bstd::set\s*<[^,<>]*\*[^<>]*>")

SOURCE_LOCATION_RE = re.compile(
    r"\b__FILE__\b|\b__LINE__\b|\b__FILE_NAME__\b"
    r"|\b__builtin_(?:FILE|LINE)\b|\bsource_location\b")

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set)\s*<")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def strip_comments_and_strings(text, keep_strings):
    """Returns `text` with comments (and, unless keep_strings, string/char
    literals) replaced by spaces. Newlines are preserved, so offsets map to
    the same line numbers as the original."""
    out = []
    i, n = 0, len(text)
    CODE, LINE_C, BLOCK_C, STR, CHR, RAW = range(6)
    state = CODE
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE_C
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_C
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # R"delim( ... )delim"
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1:i + 20]) \
                    if i > 0 and text[i - 1] == "R" else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = RAW
                    out.append('"')
                    i += 1
                    continue
                state = STR
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = CHR
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE_C:
            if c == "\n":
                state = CODE
                out.append(c)
            elif c == "\\" and nxt == "\n":
                out.append(" \n")
                i += 1
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_C:
            if c == "*" and nxt == "/":
                state = CODE
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            i += 1
        elif state == STR:
            if c == "\\" and nxt:
                out.append((c + nxt) if keep_strings else "  ")
                i += 2
                continue
            if c == '"':
                state = CODE
                out.append('"')
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
            i += 1
        elif state == CHR:
            if c == "\\" and nxt:
                out.append((c + nxt) if keep_strings else "  ")
                i += 2
                continue
            if c == "'":
                state = CODE
                out.append("'")
            else:
                out.append(c if keep_strings else " ")
            i += 1
        else:  # RAW
            if text.startswith(raw_delim, i):
                state = CODE
                out.append(raw_delim if keep_strings else '"')
                if not keep_strings:
                    out.append(" " * (len(raw_delim) - 1))
                i += len(raw_delim)
                continue
            out.append(c if (keep_strings or c == "\n") else " ")
            i += 1
    return "".join(out)


def collect_allows(lines):
    """allow[line_no] -> set of rule ids suppressed on that line and the
    next (1-based line numbers)."""
    allows = {}
    for no, line in enumerate(lines, 1):
        for m in ALLOW_RE.finditer(line):
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            unknown = rules - set(RULES)
            if unknown:
                raise SystemExit(
                    f"error: line {no}: lint:allow names unknown rule(s) "
                    f"{sorted(unknown)}; known: {sorted(RULES)}")
            allows.setdefault(no, set()).update(rules)
            allows.setdefault(no + 1, set()).update(rules)
    return allows


def unordered_container_names(code_text):
    """Names declared with an unordered_map/unordered_set type in this
    translation unit (members and locals alike — a per-file heuristic)."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code_text):
        # Walk the template argument list to its matching '>'.
        depth, i = 1, m.end()
        while i < len(code_text) and depth > 0:
            if code_text[i] == "<":
                depth += 1
            elif code_text[i] == ">":
                depth -= 1
            i += 1
        ident = IDENT_RE.match(code_text, pos=_skip_ws(code_text, i))
        if ident:
            names.add(ident.group(0))
    return names


def _skip_ws(text, i):
    while i < len(text) and text[i] in " \t\n&*":
        i += 1
    return i


def lint_file(path, display_path):
    try:
        text = open(path, encoding="utf-8", errors="replace").read()
    except OSError as e:
        raise SystemExit(f"error: cannot read {path}: {e}")

    raw_lines = text.split("\n")
    allows = collect_allows(raw_lines)
    code = strip_comments_and_strings(text, keep_strings=False)
    code_lines = code.split("\n")
    # Comments stripped, string literals kept: printf format strings live here.
    text_ns = strip_comments_and_strings(text, keep_strings=True)
    text_ns_lines = text_ns.split("\n")

    findings = []

    def report(no, rule, detail):
        if rule in allows.get(no, set()):
            return
        findings.append((display_path, no, rule, detail))

    names = unordered_container_names(code)
    if names:
        name_alt = "|".join(sorted(re.escape(n) for n in names))
        # .begin() only, not .end(): every iteration textually needs a begin
        # (range-for included, matched separately), while a bare .end() is
        # the idiomatic membership check (find() != end()) — which is fine.
        iter_re = re.compile(
            r"for\s*\([^;()]*:\s*(?:\w+(?:\.|->))*(" + name_alt + r")\b"
            r"|\b(" + name_alt + r")\s*\.\s*(?:c|cr|r)?begin\s*\(")
        for no, line in enumerate(code_lines, 1):
            for m in iter_re.finditer(line):
                name = m.group(1) or m.group(2)
                report(no, "unordered-iter",
                       f"iteration over unordered container '{name}'")

    for no, line in enumerate(code_lines, 1):
        if BANNED_RANDOM_RE.search(line):
            report(no, "banned-random", "nondeterministic randomness source")
        if BANNED_TIME_RE.search(line):
            report(no, "banned-time", "wall-clock read")
        if FLOAT_MANIP_RE.search(line):
            report(no, "float-format",
                   "stream precision state; use util::fmt_double")
        if POINTER_KEY_RE.search(line):
            report(no, "pointer-key", "ordered container keyed on a pointer")
        if SOURCE_LOCATION_RE.search(line):
            report(no, "source-location", "source file/line in program text")

    for no, line in enumerate(text_ns_lines, 1):
        if PRINTF_CALL_RE.search(line) and PRINTF_FLOAT_RE.search(line):
            report(no, "float-format",
                   "printf float conversion; use util::fmt_double")

    return findings


def gather_files(root, paths):
    files = []
    if not paths:
        src = os.path.join(root, "src")
        if not os.path.isdir(src):
            raise SystemExit(f"error: no src/ under --root {root}")
        paths = [src]
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _dirnames, filenames in os.walk(p):
                for fn in sorted(filenames):
                    if fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                        files.append(os.path.join(dirpath, fn))
        elif os.path.isfile(p):
            files.append(p)
        else:
            raise SystemExit(f"error: no such file or directory: {p}")
    return sorted(set(files))


def main(argv):
    parser = argparse.ArgumentParser(
        prog="lint_determinism.py",
        description="static determinism invariants for the crusader repo")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="files/dirs to lint instead of <root>/src")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, doc in RULES.items():
            print(f"{rule}: {doc}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = []
    for path in gather_files(root, args.paths):
        display = os.path.relpath(path, root) if not args.paths else path
        findings.extend(lint_file(path, display))

    for path, no, rule, detail in findings:
        print(f"{path}:{no}: [{rule}] {detail}")
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
