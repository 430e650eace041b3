#!/usr/bin/env python3
"""Repo-specific lint rules for parmis.

clang-tidy covers generic C++ hazards; this linter enforces the contracts
that are *specific to this codebase* and invisible to a generic tool:

  R1  no-raw-omp        `#pragma omp` appears only under src/parallel/.
                        Every other subsystem must go through the par::
                        primitives so the Serial backend and the
                        deterministic schedules keep working.
  R2  no-ambient-rng    No `rand()` / `std::random_device` under src/.
                        All randomness flows from explicit seeds through
                        rng:: counter-based hashing; ambient entropy would
                        break the bit-determinism contract.
  R3  no-naked-alloc    No `new[]` / `malloc`-family calls under src/.
                        Scratch lives in handle-owned std::vectors so the
                        warm-run zero-allocation contract stays auditable
                        (check/alloc_guard.cpp, the interposer itself, is
                        the one exemption).
  R4  unique-span-names Every PARMIS_SPAN literal is unique per file, so
                        trace aggregation never folds two distinct sites
                        into one row.
  R5  no-raw-target     `target_clones` / `__attribute__((target` appear
                        only in the PARMIS_WIDE_KERNEL macro of
                        src/parallel/simd.hpp. One macro keeps the ISA set,
                        the platform gate and the same-bits argument in one
                        place; a kernel opts in by carrying the macro.
  R6  one-lane-dispatch `case 16:` (a lane-width switch) appears only in
                        par::with_lane_width of src/parallel/simd.hpp. The
                        K-wide kernels take their compile-time lane count
                        from that one dispatch, so a new width or a wider
                        build is one edit, not one per kernel.

Usage:
  python3 tools/lint_parmis.py [--root DIR]     lint the tree (exit 1 on findings)
  python3 tools/lint_parmis.py --self-test      seed one violation per rule
                                                and verify each is caught

Line-based on purpose: no compiler, no dependencies, runs anywhere in <1s.
Suppress a true-but-intended finding with `// lint-parmis: allow(<rule>)`
on the same line.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

SOURCE_GLOBS = ("src/**/*.cpp", "src/**/*.hpp")

# (rule id, compiled pattern, path predicate, message)
RULES = [
    (
        "no-raw-omp",
        re.compile(r"#\s*pragma\s+omp\b"),
        lambda rel: not rel.startswith("src/parallel/"),
        "raw `#pragma omp` outside src/parallel/ — use the par:: primitives",
    ),
    (
        "no-ambient-rng",
        re.compile(r"\bstd::random_device\b|(?<![\w:])rand\s*\(\s*\)"),
        lambda rel: True,
        "ambient RNG — thread an explicit seed through rng:: hashing instead",
    ),
    (
        "no-naked-alloc",
        re.compile(r"\bnew\s+[A-Za-z_][\w:<>, ]*\[|(?<![\w:])(?:malloc|calloc|realloc)\s*\("),
        lambda rel: rel != "src/check/alloc_guard.cpp",
        "naked array-new/malloc — scratch belongs in handle-owned std::vectors",
    ),
    (
        "no-raw-target",
        re.compile(r"\btarget_clones\b|__attribute__\s*\(\(\s*target\b|\bgnu::target(?:_clones)?\b"),
        lambda rel: rel != "src/parallel/simd.hpp",
        "raw ISA multi-versioning — mark the kernel PARMIS_WIDE_KERNEL (parallel/simd.hpp)",
    ),
    (
        "one-lane-dispatch",
        re.compile(r"\bcase\s+16\s*:"),
        lambda rel: rel != "src/parallel/simd.hpp",
        "lane-width switch — dispatch through par::with_lane_width (parallel/simd.hpp)",
    ),
]

SPAN_RE = re.compile(r"PARMIS_SPAN\s*\(\s*\"([^\"]+)\"\s*\)")
ALLOW_RE = re.compile(r"//\s*lint-parmis:\s*allow\(([\w-]+)\)")


def strip_comments(line: str) -> str:
    """Drop // comments so commented-out code is not flagged (keeps the
    allow() marker visible to the caller, which inspects the raw line)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def lint_file(path: Path, rel: str) -> list[str]:
    findings = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        return [f"{rel}: unreadable: {e}"]

    span_names: dict[str, int] = {}
    for lineno, raw in enumerate(lines, 1):
        allowed = set(ALLOW_RE.findall(raw))
        line = strip_comments(raw)
        for rule, pattern, applies, message in RULES:
            if rule in allowed or not applies(rel):
                continue
            if pattern.search(line):
                findings.append(f"{rel}:{lineno}: [{rule}] {message}")
        for name in SPAN_RE.findall(line):
            if "unique-span-names" in allowed:
                continue
            if name in span_names:
                findings.append(
                    f"{rel}:{lineno}: [unique-span-names] PARMIS_SPAN(\"{name}\") "
                    f"duplicates line {span_names[name]} in this file"
                )
            else:
                span_names[name] = lineno
    return findings


def lint_tree(root: Path) -> list[str]:
    findings = []
    for glob in SOURCE_GLOBS:
        for path in sorted(root.glob(glob)):
            rel = path.relative_to(root).as_posix()
            findings.extend(lint_file(path, rel))
    return findings


# --------------------------------------------------------------- self-test

SEEDED = {
    "no-raw-omp": ("src/core/seeded.cpp", "#pragma omp parallel for\n"),
    "no-ambient-rng": ("src/core/seeded.cpp", "int x = rand();\n"),
    "no-naked-alloc": ("src/core/seeded.cpp", "int* p = new int[16];\n"),
    "no-raw-target": (
        "src/graph/seeded.cpp",
        '__attribute__((target("avx2"))) void kernel(double* x);\n',
    ),
    "one-lane-dispatch": (
        "src/solver/seeded.cpp",
        "switch (k_count) {\n  case 16: kernel<16>(x); break;\n}\n",
    ),
    "unique-span-names": (
        "src/core/seeded.cpp",
        'PARMIS_SPAN("dup.name");\nPARMIS_SPAN("dup.name");\n',
    ),
}

CLEAN_SNIPPETS = [
    ("src/parallel/omp_ok.cpp", "#pragma omp parallel for\n"),  # R1 scoped out
    ("src/core/clean.cpp", "// int x = rand();  commented out\n"),
    ("src/core/allowed.cpp", "int* p = new int[4];  // lint-parmis: allow(no-naked-alloc)\n"),
    ("src/core/spans.cpp", 'PARMIS_SPAN("a.b");\nPARMIS_SPAN("a.c");\n'),
    (  # R5 scoped to the one macro, R6 to the one dispatch helper
        "src/parallel/simd.hpp",
        '#define PARMIS_WIDE_KERNEL __attribute__((target_clones("avx2", "default")))\n'
        "    case 16: return f(std::integral_constant<int, 16>{});\n",
    ),
]


def self_test() -> int:
    failures = []
    for rule, (rel, body) in SEEDED.items():
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            f = root / rel
            f.parent.mkdir(parents=True)
            f.write_text(body)
            found = lint_tree(root)
            if not any(f"[{rule}]" in line for line in found):
                failures.append(f"seeded {rule} violation was NOT caught (got: {found})")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, body in CLEAN_SNIPPETS:
            f = root / rel
            f.parent.mkdir(parents=True, exist_ok=True)
            f.write_text(body)
        found = lint_tree(root)
        if found:
            failures.append(f"clean snippets produced findings: {found}")
    if failures:
        print("lint_parmis self-test FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print(f"lint_parmis self-test OK ({len(SEEDED)} rules caught, "
          f"{len(CLEAN_SNIPPETS)} clean snippets quiet)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule catches a seeded violation")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    for line in findings:
        print(line)
    if findings:
        print(f"\nlint_parmis: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_parmis: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
