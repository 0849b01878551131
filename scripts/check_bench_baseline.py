#!/usr/bin/env python3
"""Compare a fresh BENCH_campaign.json against a committed baseline.

Timings are machine-dependent, but every other field of the report is
deterministic: the universes, the per-config coverage percentages and
the op counts (including the shrunk early-abort counts) must reproduce
exactly run over run.  The bench binary itself aborts on intra-run
parity violations; this checker catches *cross-commit* regressions —
a scheme change that silently drops coverage, or an accounting change
that breaks the packed/scalar op identity — by diffing the fresh
report against the baseline generated with the same flags
(`bench_campaign --quick`, threads pinned via PRT_THREADS).

Usage: check_bench_baseline.py FRESH.json BASELINE.json
           [--expect UNIVERSE ...] [--packed-full UNIVERSE ...]

--expect pins the universe names the fresh report must contain.  The
section diff below only sees sections present in at least one file, so
without it, a bench binary that crashed mid-sweep (or a baseline that
was regenerated from a truncated run) could drop a whole universe from
*both* files and pass silently.  The CI invocation lists every
universe the quick sweep is supposed to produce.

--packed-full pins universal packing: the named sections of the fresh
report must have packed_fraction == 1.0, i.e. every fault of that
universe rode a packed lane batch and zero fell back to the scalar
per-fault path.  A lane-compatibility regression (a fault family
silently dropping off the packed path) changes no op count and no
coverage number, so only this fraction catches it.  packed_fraction is
also diffed fresh-vs-baseline for every section, like ops/coverage.

Exit status 0 when everything matches, 1 with a diff report otherwise,
2 on malformed input.
"""

import argparse
import json
import sys


def section_key(section):
    return (
        section.get("universe"),
        section.get("scheme"),
        section.get("n"),
    )


def load_report(path):
    with open(path) as f:
        report = json.load(f)
    sections = report.get("sections")
    if not isinstance(sections, list):
        raise ValueError(f"{path}: no 'sections' array (malformed report)")
    return sections


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("fresh", help="freshly generated BENCH_campaign.json")
    parser.add_argument("baseline", help="committed baseline report")
    parser.add_argument(
        "--expect",
        nargs="+",
        default=[],
        metavar="UNIVERSE",
        help="universe names the fresh report must contain; a missing "
        "one fails the check even when both files agree",
    )
    parser.add_argument(
        "--packed-full",
        nargs="+",
        default=[],
        metavar="UNIVERSE",
        help="universe names whose fresh sections must report "
        "packed_fraction == 1.0 (every fault on the packed path, "
        "zero scalar fallbacks)",
    )
    args = parser.parse_args()

    try:
        fresh = load_report(args.fresh)
        baseline = load_report(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench baseline check ERROR: {e}", file=sys.stderr)
        return 2

    errors = []

    # Pinned section list: both reports must cover every expected
    # universe — catching a sweep that silently lost a section from
    # both sides of the diff.
    fresh_universes = {s.get("universe") for s in fresh}
    baseline_universes = {s.get("universe") for s in baseline}
    for name in args.expect:
        if name not in fresh_universes:
            errors.append(
                f"expected universe '{name}' missing from fresh report "
                "(bench sweep incomplete?)"
            )
        if name not in baseline_universes:
            errors.append(
                f"expected universe '{name}' missing from baseline "
                "(baseline generated from a truncated run?)"
            )

    # Universal-packing pin: every fresh section of a --packed-full
    # universe must have routed its whole universe onto the lanes.
    packed_full = set(args.packed_full)
    for name in packed_full - fresh_universes:
        errors.append(
            f"--packed-full universe '{name}' missing from fresh report"
        )
    for s in fresh:
        if s.get("universe") in packed_full:
            fraction = s.get("packed_fraction")
            if fraction != 1.0:
                errors.append(
                    f"section {section_key(s)}: packed_fraction "
                    f"{fraction} != 1.0 (scalar fallbacks on a "
                    "universe that must pack fully)"
                )

    fresh_sections = {section_key(s): s for s in fresh}
    baseline_sections = {section_key(s): s for s in baseline}
    # Both directions: a section/config present on only one side means
    # either a regression (dropped from the fresh run) or a bench
    # change whose baseline was not regenerated — both must fail so
    # nothing ships unchecked.
    for key in fresh_sections.keys() - baseline_sections.keys():
        errors.append(
            f"section {key} not in baseline (regenerate the baseline)"
        )
    for key, base in baseline_sections.items():
        got = fresh_sections.get(key)
        if got is None:
            errors.append(f"section {key} missing from fresh report")
            continue
        if got.get("faults") != base.get("faults"):
            errors.append(
                f"section {key}: faults {got.get('faults')} != "
                f"baseline {base.get('faults')}"
            )
            continue
        # Suite sections: the wall-clock ratio itself is machine
        # dependent, but the field must survive (the bench computed a
        # real suite run) and stay positive; a 0 would mean the suite
        # config silently dropped out of the comparison.
        if base.get("suite_vs_sequential", 0) > 0:
            if got.get("suite_vs_sequential", 0) <= 0:
                errors.append(
                    f"section {key}: suite_vs_sequential missing or 0 "
                    "(suite config dropped out of the sweep?)"
                )
        # The dispatch split is deterministic (it depends only on the
        # universe and the engine options), so the packed share must
        # reproduce exactly run over run.
        if got.get("packed_fraction") != base.get("packed_fraction"):
            errors.append(
                f"section {key}: packed_fraction "
                f"{got.get('packed_fraction')} != baseline "
                f"{base.get('packed_fraction')}"
            )
        base_configs = {c.get("name"): c for c in base.get("configs", [])}
        got_configs = {c.get("name"): c for c in got.get("configs", [])}
        for name in got_configs.keys() - base_configs.keys():
            errors.append(
                f"section {key}: config '{name}' not in baseline "
                "(regenerate the baseline)"
            )
        for name, bc in base_configs.items():
            gc = got_configs.get(name)
            if gc is None:
                errors.append(f"section {key}: config '{name}' missing")
                continue
            for field in ("ops", "coverage"):
                if gc.get(field) != bc.get(field):
                    errors.append(
                        f"section {key} config '{name}': {field} "
                        f"{gc.get(field)} != baseline {bc.get(field)}"
                    )

    if errors:
        print("bench baseline check FAILED:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    expected = (
        f", all {len(args.expect)} expected universes present"
        if args.expect
        else ""
    )
    print(
        f"bench baseline check OK: {len(baseline)} sections, "
        f"ops and coverage match{expected}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
