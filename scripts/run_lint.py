#!/usr/bin/env python3
"""Project lint wall: clang-tidy + the determinism/concurrency lints.

Two layers (DESIGN.md §12):

  1. clang-tidy over compile_commands.json with the repo's .clang-tidy
     profile (bugprone-*, concurrency-*, performance-*, narrowing
     conversions, a tuned modernize subset).
  2. Custom project lints that encode invariants generic tooling
     cannot know:
       * raw std::mutex / std::condition_variable declarations outside
         src/util/annotations.hpp — all locking must go through the
         capability-annotated util::Mutex wrappers so clang's
         -Wthread-safety analysis sees it;
       * iteration over std::unordered_map / std::unordered_set in the
         result-merge paths (src/analysis/) — merge order must be
         index-ordered or the "bit-identical at any thread count"
         guarantee dies; iterate a sorted structure or indices instead;
       * rand() / srand() / time() / std::random_device in src/ —
         util::rng (seeded xoshiro256**) is the only sanctioned
         randomness source; wall-clock and libc randomness break run
         reproducibility;
       * bare rename(...) / std::filesystem::rename in src/ outside
         src/util/durable_write.cpp — a plain rename has no fsync of
         the file or its directory, so a crash can lose or tear the
         replacement; file replacement must go through
         util::durable_replace_file;
       * raw uint64 lane arithmetic (1ULL <<, std::popcount,
         std::countr_zero, ~0ULL, ...) in the packed fault-path files
         (packed_fault_ram.*, prt_packed.*, march_runner.*) outside
         src/mem/lane_word.hpp — those files are generic over the lane
         word (64/512 lanes) and must use the width-generic
         helpers, or the WideWord instantiations silently break;
       * the scalar reference (FaultyRam, run_prt(, run_march(,
         run_march_backgrounds() in src/analysis/ outside
         src/analysis/fault_sim.cpp — every engine fault rides a packed
         lane (DESIGN.md §20); only run_campaign and its adapters, the
         yardstick the engines are checked against, run the reference;
       * the packed replays (run_prt_packed(, run_march_packed() in
         src/analysis/ outside src/analysis/campaign_driver.hpp — the
         one campaign driver picks the replay from the cached
         transcript (DESIGN.md §22), so no other engine-layer file
         grows a second dispatch.

Exit status is non-zero when any layer reports a finding.

Local iteration: `scripts/run_lint.py --changed-only` lints only files
that differ from the merge-base with main, and clang-tidy is skipped
with a notice when no binary is available (CI passes --require-tidy so
the wall cannot silently lose that layer there).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Preference order for the tidy binary; CI pins the version explicitly
# via --tidy-binary so a toolchain bump there is a reviewed change.
TIDY_CANDIDATES = ["clang-tidy-18", "clang-tidy-17", "clang-tidy-16",
                   "clang-tidy-15", "clang-tidy-14", "clang-tidy"]

# Files the custom lints read.
SRC_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
# The one file allowed to name the raw primitives: it defines the
# annotated wrappers around them.
MUTEX_ALLOWLIST = {os.path.join("src", "util", "annotations.hpp")}
# Result-merge layer: everything that folds per-shard/per-fault
# results must iterate in deterministic order.
MERGE_PATH_PREFIXES = (os.path.join("src", "analysis") + os.sep,)
# The one sanctioned rename path: write tmp, fsync, rename, fsync the
# directory (util::durable_replace_file).
RENAME_ALLOWLIST = {os.path.join("src", "util", "durable_write.cpp")}
# The packed fault-path files, generic over the lane word W
# (mem/lane_word.hpp): raw uint64 lane arithmetic in them silently
# pins the code to 64 lanes and breaks the WideWord instantiations.
LANE_WORD_FILE_RE = re.compile(
    r"(?:^|[\\/])(?:packed_fault_ram|prt_packed|march_runner)\.(?:hpp|cpp)$")
# The one file allowed raw lane bit twiddling: it defines the helpers.
LANE_WORD_ALLOWLIST = {os.path.join("src", "mem", "lane_word.hpp")}
# The engine layer, and its one file allowed to run the scalar
# reference: run_campaign and the prt_algorithm / march_algorithm
# adapters.
ENGINE_PATH_PREFIX = os.path.join("src", "analysis") + os.sep
SCALAR_REFERENCE_ALLOWLIST = {os.path.join("src", "analysis", "fault_sim.cpp")}
# The one engine-layer file allowed to call the packed replays: the
# campaign driver, which picks one per transcript.
PACKED_REPLAY_ALLOWLIST = {
    os.path.join("src", "analysis", "campaign_driver.hpp")}

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"condition_variable(?:_any)?)\b")
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<.*>\s+(\w+)")
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*std::unordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*:\s*(.*)\)\s*[{]?")
NONDETERMINISM_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand)\s*\(|\bstd::random_device\b|\btime\s*\(")
# \b keeps identifiers like durable_rename-style names ('_' is a word
# character) out while catching rename(, ::rename( and
# std::filesystem::rename.
BARE_RENAME_RE = re.compile(r"\bstd::filesystem::rename\b|\brename\s*\(")
# Raw uint64 lane-word idioms: single-lane shifts, popcounts,
# trailing-zero scans and all-ones masks.  Inside the packed files
# these must go through the width-generic lane helpers
# (mem::lane_bit/lane_test/lane_popcount/for_each_set_lane/...).
RAW_LANE_ARITH_RE = re.compile(
    r"\b1ULL\s*<<|\b(?:std::)?uint64_t\{\s*1\s*\}\s*<<|"
    r"\bstd::popcount\s*\(|\bstd::countr_zero\s*\(|\bstd::countl_zero\s*\(|"
    r"~0ULL\b|~(?:std::)?uint64_t\{\s*0\s*\}")
# The live scalar reference.  The \s*\( after the name keeps the packed
# replays (run_prt_packed(, run_march_packed() out.
SCALAR_REFERENCE_RE = re.compile(
    r"\bFaultyRam\b|\brun_prt\s*\(|\brun_march\s*\(|"
    r"\brun_march_backgrounds\s*\(")
PACKED_REPLAY_RE = re.compile(r"\brun_(?:prt|march)_packed\s*\(")


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string literals, keeping
    line structure so findings report real line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def lint_raw_mutex(rel_path: str, clean: str) -> list[str]:
    if rel_path in MUTEX_ALLOWLIST or not rel_path.startswith("src" + os.sep):
        return []
    findings = []
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = RAW_MUTEX_RE.search(line)
        if m:
            findings.append(
                f"{rel_path}:{lineno}: raw std::{m.group(1)} — declare locks "
                f"through the annotated util::Mutex/util::CondVar wrappers "
                f"(src/util/annotations.hpp) so -Wthread-safety can check "
                f"the discipline")
    return findings


def lint_unordered_iteration(rel_path: str, clean: str) -> list[str]:
    if not rel_path.startswith(MERGE_PATH_PREFIXES):
        return []
    unordered_names: set[str] = set()
    unordered_types: set[str] = set()
    for m in UNORDERED_ALIAS_RE.finditer(clean):
        unordered_types.add(m.group(1))
    for m in UNORDERED_DECL_RE.finditer(clean):
        unordered_names.add(m.group(1))
    if unordered_types:
        alias_decl = re.compile(
            r"\b(?:" + "|".join(sorted(unordered_types)) +
            r")\s*(?:<.*>)?\s+(\w+)")
        for m in alias_decl.finditer(clean):
            unordered_names.add(m.group(1))
    if not unordered_names:
        return []
    findings = []
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        range_expr = m.group(1)
        for name in unordered_names:
            if re.search(r"\b" + re.escape(name) + r"\b", range_expr):
                findings.append(
                    f"{rel_path}:{lineno}: iteration over unordered "
                    f"container '{name}' in a result-merge path — "
                    f"unordered_map/set iteration order is "
                    f"implementation-defined, which breaks the "
                    f"bit-identical-merge guarantee; iterate indices or an "
                    f"ordered structure")
    return findings


def lint_nondeterminism(rel_path: str, clean: str) -> list[str]:
    if not rel_path.startswith("src" + os.sep):
        return []
    findings = []
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = NONDETERMINISM_RE.search(line)
        if m:
            findings.append(
                f"{rel_path}:{lineno}: '{m.group(0).strip()}' — wall-clock / "
                f"libc randomness in src/ breaks reproducibility; seed a "
                f"prt::Xoshiro256 (util/rng.hpp) instead")
    return findings


def lint_bare_rename(rel_path: str, clean: str) -> list[str]:
    if rel_path in RENAME_ALLOWLIST or not rel_path.startswith("src" + os.sep):
        return []
    findings = []
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = BARE_RENAME_RE.search(line)
        if m:
            findings.append(
                f"{rel_path}:{lineno}: bare '{m.group(0).strip()}' — a plain "
                f"rename is not crash-durable (no fsync of the file or its "
                f"directory); replace files through "
                f"util::durable_replace_file (src/util/durable_write.cpp), "
                f"the one sanctioned rename path")
    return findings


def lint_raw_lane_arith(rel_path: str, clean: str) -> list[str]:
    if rel_path in LANE_WORD_ALLOWLIST or \
            not rel_path.startswith("src" + os.sep) or \
            not LANE_WORD_FILE_RE.search(rel_path):
        return []
    findings = []
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = RAW_LANE_ARITH_RE.search(line)
        if m:
            findings.append(
                f"{rel_path}:{lineno}: raw uint64 lane arithmetic "
                f"'{m.group(0).strip()}' in a packed fault-path file — this "
                f"code is generic over the lane word (64/512 lanes); use "
                f"the width-generic helpers in mem/lane_word.hpp "
                f"(lane_bit/lane_test/lane_broadcast/lane_popcount/"
                f"for_each_set_lane) instead")
    return findings


def lint_scalar_reference(rel_path: str, clean: str) -> list[str]:
    if rel_path in SCALAR_REFERENCE_ALLOWLIST or \
            not rel_path.startswith(ENGINE_PATH_PREFIX):
        return []
    findings = []
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = SCALAR_REFERENCE_RE.search(line)
        if m:
            findings.append(
                f"{rel_path}:{lineno}: '{m.group(0).strip()}' — the engine "
                f"layer runs every fault on a packed lane (DESIGN.md §20); "
                f"the scalar reference belongs to run_campaign and its "
                f"adapters in src/analysis/fault_sim.cpp only")
    return findings


def lint_packed_replay(rel_path: str, clean: str) -> list[str]:
    if rel_path in PACKED_REPLAY_ALLOWLIST or \
            not rel_path.startswith(ENGINE_PATH_PREFIX):
        return []
    findings = []
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = PACKED_REPLAY_RE.search(line)
        if m:
            findings.append(
                f"{rel_path}:{lineno}: '{m.group(0).strip()}' — the engine "
                f"layer runs every campaign through the one driver "
                f"(DESIGN.md §22), which picks the packed replay from the "
                f"cached transcript in src/analysis/campaign_driver.hpp "
                f"only")
    return findings


CUSTOM_LINTS = (lint_raw_mutex, lint_unordered_iteration, lint_nondeterminism,
                lint_bare_rename, lint_raw_lane_arith, lint_scalar_reference,
                lint_packed_replay)


def iter_source_files(changed: set[str] | None) -> list[str]:
    files = []
    for top in ("src", "tests", "bench", "examples"):
        for root, _dirs, names in os.walk(os.path.join(REPO_ROOT, top)):
            for name in sorted(names):
                if not name.endswith(SRC_EXTENSIONS):
                    continue
                rel = os.path.relpath(os.path.join(root, name), REPO_ROOT)
                if changed is not None and rel not in changed:
                    continue
                files.append(rel)
    return sorted(files)


def run_custom_lints(changed: set[str] | None) -> list[str]:
    findings = []
    for rel in iter_source_files(changed):
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
            clean = strip_comments(f.read())
        for lint in CUSTOM_LINTS:
            findings.extend(lint(rel, clean))
    return findings


def changed_files() -> set[str]:
    """Files differing from the merge-base with main (committed or
    not) — the --changed-only working set."""
    merge_base = None
    for base in ("origin/main", "origin/master", "main", "master"):
        proc = subprocess.run(["git", "merge-base", "HEAD", base],
                              capture_output=True, text=True, cwd=REPO_ROOT)
        if proc.returncode == 0:
            merge_base = proc.stdout.strip()
            break
    args = ["git", "diff", "--name-only"]
    if merge_base:
        args.append(merge_base)
    proc = subprocess.run(args, capture_output=True, text=True, cwd=REPO_ROOT,
                          check=True)
    return {line.strip() for line in proc.stdout.splitlines() if line.strip()}


def find_tidy(explicit: str | None) -> str | None:
    if explicit:
        return explicit if shutil.which(explicit) else None
    for candidate in TIDY_CANDIDATES:
        if shutil.which(candidate):
            return candidate
    return None


def run_clang_tidy(tidy: str, build_dir: str, changed: set[str] | None,
                   jobs: int) -> int:
    db_path = os.path.join(build_dir, "compile_commands.json")
    with open(db_path, encoding="utf-8") as f:
        database = json.load(f)
    files = []
    for entry in database:
        path = os.path.abspath(os.path.join(entry["directory"], entry["file"]))
        rel = os.path.relpath(path, REPO_ROOT)
        if rel.startswith(".."):  # FetchContent deps etc.
            continue
        if not rel.startswith(("src" + os.sep, "tests" + os.sep,
                               "bench" + os.sep, "examples" + os.sep)):
            continue
        if changed is not None and rel not in changed:
            continue
        files.append(path)
    files = sorted(set(files))
    if not files:
        print("clang-tidy: no files in scope")
        return 0

    failures = 0

    def one(path: str) -> int:
        proc = subprocess.run(
            [tidy, "-p", build_dir, "--quiet", path],
            capture_output=True, text=True, cwd=REPO_ROOT)
        if proc.returncode != 0 or "warning:" in proc.stdout or \
                "error:" in proc.stdout:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            return 1
        return 0

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        failures = sum(pool.map(one, files))
    print(f"clang-tidy: {len(files)} file(s), {failures} with findings")
    return failures


# --- selftest --------------------------------------------------------
# The lint wall is itself test-covered: each custom lint must fire on a
# seeded violation and stay quiet on the sanctioned pattern.  CI runs
# this before the real lint, so a regex regression fails the lane
# instead of silently passing everything.

SELFTEST_CASES = [
    # (lint, relative path, snippet, expect_finding)
    (lint_raw_mutex, "src/util/thread_pool.hpp",
     "  std::mutex mutex_;\n", True),
    (lint_raw_mutex, "src/util/thread_pool.hpp",
     "  std::condition_variable cv_;\n", True),
    (lint_raw_mutex, "src/util/thread_pool.hpp",
     "  // std::mutex in a comment is fine\n  util::Mutex mutex_;\n", False),
    (lint_raw_mutex, "src/util/annotations.hpp",
     "  std::mutex m_;\n", False),
    (lint_raw_mutex, "tests/test_util.cpp",
     "  std::mutex test_local;\n", False),
    (lint_unordered_iteration, "src/analysis/fault_sim.cpp",
     "std::unordered_map<int, int> tallies;\n"
     "for (const auto& [k, v] : tallies) {\n", True),
    (lint_unordered_iteration, "src/analysis/oracle_cache.cpp",
     "using SlotMap = std::unordered_map<std::string, int>;\n"
     "SlotMap slots_;\n"
     "for (auto& s : slots_) {\n", True),
    (lint_unordered_iteration, "src/analysis/fault_sim.cpp",
     "std::map<int, int> by_class;\n"
     "for (const auto& [k, v] : by_class) {\n", False),
    (lint_unordered_iteration, "src/core/prt_engine.cpp",
     "std::unordered_map<int, int> local;\nfor (auto& s : local) {\n", False),
    (lint_nondeterminism, "src/util/rng.hpp",
     "  int x = rand();\n", True),
    (lint_nondeterminism, "src/mem/sram.cpp",
     "  std::random_device rd;\n", True),
    (lint_nondeterminism, "src/march/march_runner.cpp",
     "  auto t0 = time(nullptr);\n", True),
    (lint_nondeterminism, "src/march/march_runner.cpp",
     "  memory.advance_time(delay_ticks);\n", False),
    (lint_nondeterminism, "tests/test_util.cpp",
     "  int x = rand();\n", False),
    (lint_bare_rename, "src/analysis/campaign_service.cpp",
     "  std::rename(tmp.c_str(), path.c_str());\n", True),
    (lint_bare_rename, "src/analysis/campaign_service.cpp",
     "  std::filesystem::rename(tmp, path);\n", True),
    (lint_bare_rename, "src/mem/sram.cpp",
     "  ::rename(tmp, path);\n", True),
    (lint_bare_rename, "src/util/durable_write.cpp",
     "  std::rename(tmp.c_str(), path.c_str());\n", False),
    (lint_bare_rename, "src/analysis/campaign_service.cpp",
     "  util::durable_replace_file(path, text);\n", False),
    (lint_bare_rename, "tests/test_checkpoint_recovery.cpp",
     "  std::rename(a, b);\n", False),
    (lint_raw_lane_arith, "src/mem/packed_fault_ram.cpp",
     "  const auto mask = 1ULL << lane;\n", True),
    (lint_raw_lane_arith, "src/core/prt_packed.cpp",
     "  n += std::popcount(detected);\n", True),
    (lint_raw_lane_arith, "src/march/march_runner.cpp",
     "  const unsigned lane = std::countr_zero(pending);\n", True),
    (lint_raw_lane_arith, "src/mem/packed_fault_ram.hpp",
     "  const auto fill = ~std::uint64_t{0};\n", True),
    (lint_raw_lane_arith, "src/core/prt_packed.cpp",
     "  const W bit = mem::lane_bit<W>(lane);\n"
     "  if (mem::lane_test(detected, lane)) n += 1;\n", False),
    (lint_raw_lane_arith, "src/mem/lane_word.hpp",
     "  return std::uint64_t{1} << lane;\n", False),
    # Non-packed files keep their raw bit twiddling (MISR slicing,
    # decoder masks) — the lint is scoped to the lane-generic files.
    (lint_raw_lane_arith, "src/core/misr.cpp",
     "  const auto m = 1ULL << tap;\n", False),
    (lint_raw_lane_arith, "tests/test_packed_campaign.cpp",
     "  const auto m = 1ULL << lane;\n", False),
    (lint_scalar_reference, "src/analysis/campaign_driver.hpp",
     "  mem::FaultyRam ram(opt.n, opt.m);\n", True),
    (lint_scalar_reference, "src/analysis/campaign_driver.hpp",
     "  return core::run_prt(ram, scheme_, oracle, run).detected();\n", True),
    (lint_scalar_reference, "src/analysis/fault_sim.cpp",
     "  mem::FaultyRam ram(opt.n, opt.m);\n", False),
    # The packed replays share the reference's name prefix.
    (lint_scalar_reference, "src/analysis/campaign_driver.hpp",
     "  const auto v = core::run_prt_packed(batch, t, run, scratch);\n"
     "  const auto w = march::run_march_packed(batch, t, run);\n", False),
    (lint_scalar_reference, "src/analysis/campaign_driver.hpp",
     "  // unlike run_campaign, never a FaultyRam or run_prt(...)\n", False),
    (lint_packed_replay, "src/analysis/campaign_suite.cpp",
     "  const auto v = core::run_prt_packed(batch, t, run, scratch);\n", True),
    (lint_packed_replay, "src/analysis/campaign_service.cpp",
     "  return march::run_march_packed (batch, t, run);\n", True),
    (lint_packed_replay, "src/analysis/campaign_driver.hpp",
     "  const auto v = core::run_prt_packed(batch, t, run, scratch);\n"
     "  const auto w = march::run_march_packed(batch, t, run);\n", False),
    (lint_packed_replay, "src/analysis/campaign_suite.cpp",
     "  // the driver, not this file, calls run_march_packed(...)\n", False),
    # The replays themselves live outside the engine layer.
    (lint_packed_replay, "src/core/prt_packed.cpp",
     "  return run_prt_packed(ram, transcript, options, scratch);\n", False),
]


def selftest() -> int:
    failures = 0
    for lint, rel, snippet, expect in SELFTEST_CASES:
        findings = lint(rel.replace("/", os.sep), strip_comments(snippet))
        if bool(findings) != expect:
            failures += 1
            print(f"selftest FAIL: {lint.__name__} on {rel!r} expected "
                  f"finding={expect}, got {findings}")
    print(f"selftest: {len(SELFTEST_CASES)} cases, {failures} failures")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="build tree with compile_commands.json")
    parser.add_argument("--changed-only", action="store_true",
                        help="lint only files changed vs the merge-base "
                             "with main")
    parser.add_argument("--tidy-binary", default=None,
                        help="clang-tidy executable (default: newest found)")
    parser.add_argument("--no-tidy", action="store_true",
                        help="custom lints only")
    parser.add_argument("--require-tidy", action="store_true",
                        help="fail when clang-tidy (or the compile database) "
                             "is unavailable instead of skipping that layer")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--selftest", action="store_true",
                        help="run the custom lints against seeded "
                             "violations and exit")
    args = parser.parse_args()

    if args.selftest:
        return 1 if selftest() else 0

    changed = changed_files() if args.changed_only else None
    if changed is not None:
        print(f"--changed-only: {len(changed)} changed file(s)")

    failures = 0

    findings = run_custom_lints(changed)
    for finding in findings:
        print(finding)
    print(f"custom lint: {len(findings)} finding(s)")
    failures += len(findings)

    if not args.no_tidy:
        tidy = find_tidy(args.tidy_binary)
        db = os.path.join(REPO_ROOT, args.build_dir, "compile_commands.json")
        if tidy is None or not os.path.exists(db):
            missing = "clang-tidy binary" if tidy is None else db
            if args.require_tidy:
                print(f"ERROR: {missing} unavailable and --require-tidy set")
                return 1
            print(f"NOTE: {missing} unavailable — skipping the clang-tidy "
                  f"layer (custom lints still ran)")
        else:
            failures += run_clang_tidy(tidy, os.path.join(REPO_ROOT,
                                                          args.build_dir),
                                       changed, max(args.jobs, 1))

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
