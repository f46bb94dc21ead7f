#!/usr/bin/env python3
"""Render, check, and diff tfgc heap snapshots.

A snapshot is the JSON written by `tfgc --heap-snapshot=FILE` (schema 1):
the typed census of the last collection's live heap, the cumulative
per-allocation-site counts, and (with --retainers=N) the top retainers by
retained size.

Usage:
  heap_report.py SNAP.json             render one snapshot as tables
  heap_report.py --check SNAP.json     validate invariants; exit 1 on fail
  heap_report.py --diff OLD.json NEW.json
                                       leak ranking: per-site/per-kind
                                       live-byte growth, biggest first
  heap_report.py --top N ...           limit tables to N rows (default 20)

--check enforces what the profiler guarantees by construction, so it
doubles as an integration test in CI:
  * the snapshot is valid (at least one collection ran)
  * per-kind live bytes sum to the bytes the collection covered
  * with site tracking, per-site objects/bytes sum to the totals
  * retainer rows (with --retainers) are ranked by retained bytes,
    descending; each has self <= retained <= the snapshot's live bytes
    and a non-empty sample root path
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        snap = json.load(f)
    if snap.get("schema") != 1 or snap.get("tool") != "tfgc-heap-profile":
        sys.exit(f"{path}: not a tfgc heap snapshot")
    return snap


def site_label(row):
    if row.get("site", -1) < 0:
        return "<unknown>"
    label = row.get("func", "?")
    if row.get("line"):
        label += f":{row['line']}:{row.get('col', 0)}"
    if row.get("type"):
        label += f" ({row['type']})"
    return label


def fmt_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024.0
    return f"{n} B"


def table(rows, headers):
    widths = [len(h) for h in headers]
    str_rows = [[str(c) for c in r] for r in rows]
    for r in str_rows:
        widths = [max(w, len(c)) for w, c in zip(widths, r)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def render(snap, top):
    col = snap.get("collection", {})
    print(f"heap snapshot: {snap.get('label', '')}")
    print(f"  collection #{col.get('seq')} ({col.get('kind')}), "
          f"{snap['objects']} live objects, {fmt_bytes(snap['bytes'])} "
          f"(heap used: {fmt_bytes(snap['used_bytes'])})")
    print(f"  allocations observed: {snap.get('alloc_total', 0)}")
    if "gen" in snap:
        g = snap["gen"]
        print(f"  nursery: {g['nursery_objects']} objects, "
              f"{fmt_bytes(g['nursery_bytes'])}; tenured: "
              f"{g['tenured_objects']} objects, "
              f"{fmt_bytes(g['tenured_bytes'])}")
    print()

    kinds = sorted(snap.get("by_kind", []), key=lambda r: -r["bytes"])
    if kinds:
        print("live bytes by reconstructed kind:")
        print(table([(k["kind"], k["objects"], fmt_bytes(k["bytes"]))
                     for k in kinds[:top]],
                    ["kind", "objects", "bytes"]))
        print()

    sites = sorted(snap.get("by_site", []), key=lambda r: -r["bytes"])
    if sites:
        print("live bytes by allocation site:")
        print(table([(site_label(s), s["objects"], fmt_bytes(s["bytes"]))
                     for s in sites[:top]],
                    ["site", "objects", "bytes"]))
        print()

    allocs = sorted(snap.get("alloc_sites", []), key=lambda r: -r["count"])
    if allocs:
        print("allocation counts by site (cumulative):")
        print(table([(site_label(s), s["count"]) for s in allocs[:top]],
                    ["site", "allocs"]))
        print()

    for i, r in enumerate(snap.get("retainers", [])[:top]):
        if i == 0:
            print("top retainers (dominator-tree retained size):")
        path = " <- ".join(reversed(r.get("path", []))) or "?"
        print(f"  {i + 1}. {fmt_bytes(r['retained_bytes'])} retained "
              f"(self {fmt_bytes(r['self_bytes'])}, {r['kind']}) via {path}")


def check(snap, path):
    errors = []
    if not snap.get("valid"):
        errors.append("snapshot invalid: no collection ran")
    else:
        kind_bytes = sum(k["bytes"] for k in snap.get("by_kind", []))
        if kind_bytes != snap["used_bytes"]:
            errors.append(f"per-kind bytes {kind_bytes} != heap used bytes "
                          f"{snap['used_bytes']}")
        if kind_bytes != snap["bytes"]:
            errors.append(f"per-kind bytes {kind_bytes} != total bytes "
                          f"{snap['bytes']}")
        kind_objs = sum(k["objects"] for k in snap.get("by_kind", []))
        if kind_objs != snap["objects"]:
            errors.append(f"per-kind objects {kind_objs} != total "
                          f"{snap['objects']}")
        if snap.get("site_tracking"):
            site_objs = sum(s["objects"] for s in snap.get("by_site", []))
            site_bytes = sum(s["bytes"] for s in snap.get("by_site", []))
            if site_objs != snap["objects"]:
                errors.append(f"per-site objects {site_objs} != total "
                              f"{snap['objects']}")
            if site_bytes != snap["bytes"]:
                errors.append(f"per-site bytes {site_bytes} != total "
                              f"{snap['bytes']}")
        if "gen" in snap:
            g = snap["gen"]
            gen_objs = g["nursery_objects"] + g["tenured_objects"]
            gen_bytes = g["nursery_bytes"] + g["tenured_bytes"]
            if gen_objs != snap["objects"]:
                errors.append(f"gen-split objects {gen_objs} != total "
                              f"{snap['objects']}")
            if gen_bytes != snap["bytes"]:
                errors.append(f"gen-split bytes {gen_bytes} != total "
                              f"{snap['bytes']}")
        prev = None
        for i, r in enumerate(snap.get("retainers", [])):
            where = f"retainer #{i + 1}"
            if prev is not None and r["retained_bytes"] > prev:
                errors.append(f"{where}: retained {r['retained_bytes']} "
                              f"exceeds the row above ({prev})")
            prev = r["retained_bytes"]
            if not r["self_bytes"] <= r["retained_bytes"] <= snap["bytes"]:
                errors.append(f"{where}: need self {r['self_bytes']} <= "
                              f"retained {r['retained_bytes']} <= live "
                              f"{snap['bytes']}")
            if not r.get("path"):
                errors.append(f"{where}: empty root path")
    for e in errors:
        print(f"{path}: CHECK FAILED: {e}", file=sys.stderr)
    if not errors:
        print(f"{path}: ok ({snap['objects']} objects, "
              f"{fmt_bytes(snap['bytes'])})")
    return not errors


def diff(old, new, top):
    def by_site(snap):
        return {site_label(s): (s["objects"], s["bytes"])
                for s in snap.get("by_site", [])}

    o, n = by_site(old), by_site(new)
    rows = []
    for label in sorted(set(o) | set(n)):
        oo, ob = o.get(label, (0, 0))
        no, nb = n.get(label, (0, 0))
        if nb != ob or no != oo:
            rows.append((label, no - oo, nb - ob, nb))
    rows.sort(key=lambda r: -r[2])
    print(f"live-byte growth by allocation site "
          f"(collection #{old['collection']['seq']} -> "
          f"#{new['collection']['seq']}):")
    if not rows:
        print("  no change")
        return
    print(table([(l, f"{do:+d}", f"{db:+d}", fmt_bytes(b))
                 for l, do, db, b in rows[:top]],
                ["site", "objects Δ", "bytes Δ", "now"]))
    grew = sum(db for _, _, db, _ in rows if db > 0)
    print(f"\ntotal growth: {fmt_bytes(grew)}; leading suspect: "
          f"{rows[0][0] if rows and rows[0][2] > 0 else 'none'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("snapshots", nargs="+", help="snapshot JSON file(s)")
    ap.add_argument("--check", action="store_true",
                    help="validate snapshot invariants; exit 1 on failure")
    ap.add_argument("--diff", action="store_true",
                    help="diff two snapshots (leak ranking)")
    ap.add_argument("--top", type=int, default=20,
                    help="max rows per table (default 20)")
    args = ap.parse_args()

    if args.diff:
        if len(args.snapshots) != 2:
            ap.error("--diff needs exactly two snapshots")
        diff(load(args.snapshots[0]), load(args.snapshots[1]), args.top)
        return

    ok = True
    for path in args.snapshots:
        snap = load(path)
        if args.check:
            ok = check(snap, path) and ok
        else:
            render(snap, args.top)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
