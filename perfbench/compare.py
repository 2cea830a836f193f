#!/usr/bin/env python3
"""Compare two perfbench result sets, or summarize one into a baseline entry.

    python3 perfbench/compare.py A B
    python3 perfbench/compare.py --summary DIR --label "what was measured"

A and B are result directories or files written by ``run.py`` (by default
``.perfbench-out/``), or ``perfbench/baseline.json``, whose last entry is
used.  For every (workload, instance seed, trace) present in both sets the
comparison prints each metric's median on both sides with the change, and
every fingerprint field that differs: a change that alters search behaviour
shows here even when its timings are within bounds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _key(result: dict) -> str:
    return f"{result['workload']} i{result['instance_seed']} t{result['trace']}"


def load(path: Path) -> dict[str, dict]:
    """{key: {"values": {metric: [...]}, "units": {...}, "fingerprints": [...], "shares": {...}}}"""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: dict[str, dict] = defaultdict(
        lambda: {"values": defaultdict(list), "units": {}, "fingerprints": [], "shares": defaultdict(list)}
    )
    for file in files:
        doc = json.loads(file.read_text(encoding="utf-8"))
        if "entries" in doc:  # a baseline: medians of its last entry stand for one run each
            for key, rec in doc["entries"][-1]["workloads"].items():
                g = groups[key]
                for name, m in rec["metrics"].items():
                    g["values"][name].append(m["median"])
                    g["units"][name] = m["unit"]
                g["fingerprints"].append(rec["fingerprint"])
            continue
        g = groups[_key(doc)]
        for name, m in doc["metrics"].items():
            g["values"][name].append(m["value"])
            g["units"][name] = m["unit"]
        g["fingerprints"].append(doc["fingerprint"])
        for name, share in doc.get("shares", {}).items():
            g["shares"][name].append(share)
    return dict(groups)


def _distinct(fingerprints: list) -> list:
    out = []
    for fp in fingerprints:
        if fp not in out:
            out.append(fp)
    return out


def diff(a: dict, b: dict) -> None:
    for key in sorted(a.keys() & b.keys()):
        ga, gb = a[key], b[key]
        print(f"{key}  (A: {len(ga['fingerprints'])} runs, B: {len(gb['fingerprints'])} runs)")
        for name in ga["values"]:
            if name not in gb["values"]:
                continue
            ma = statistics.median(ga["values"][name])
            mb = statistics.median(gb["values"][name])
            change = f"{(mb - ma) / abs(ma):+8.1%}" if ma else "       -"
            print(f"  {name:40s} {ga['units'][name]:7s} A {ma:14.6g}  B {mb:14.6g}  {change}")
        for label, g in (("A", ga), ("B", gb)):
            if len(_distinct(g["fingerprints"])) > 1:
                print(f"  {label}: the fingerprint differs between runs of the same code")
        fa, fb = _distinct(ga["fingerprints"])[0], _distinct(gb["fingerprints"])[0]
        changed = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
        for k in changed:
            print(f"  fingerprint {k}: A {fa.get(k)!r}  B {fb.get(k)!r}")
        if not changed:
            print("  fingerprint identical")
    for key in sorted(a.keys() ^ b.keys()):
        print(f"{key}: only in {'A' if key in a else 'B'}")


def summary(groups: dict, label: str) -> dict:
    workloads = {}
    for key, g in sorted(groups.items()):
        metrics = {}
        for name, values in g["values"].items():
            median = statistics.median(values)
            metrics[name] = {"median": median, "unit": g["units"][name]}
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                metrics[name].update(q1=q1, q3=q3, spread=(q3 - q1) / abs(median) if median else 0.0)
        distinct = _distinct(g["fingerprints"])
        rec = {"runs": len(g["fingerprints"]), "metrics": metrics, "fingerprint": distinct[0]}
        if len(distinct) > 1:
            rec["other_fingerprints"] = distinct[1:]
        if g["shares"]:
            rec["shares"] = {name: statistics.median(v) for name, v in g["shares"].items()}
        workloads[key] = rec
    return {"label": label, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", nargs="*", type=Path, help="two result sets to compare")
    parser.add_argument("--summary", type=Path, help="print a baseline entry summarizing this result set")
    parser.add_argument("--label", default="", help="label of the summarized entry")
    args = parser.parse_args(argv)
    if args.summary is not None:
        print(json.dumps(summary(load(args.summary), args.label), indent=1))
        return 0
    if len(args.sets) != 2:
        parser.error("give two result sets, or --summary DIR")
    diff(load(args.sets[0]), load(args.sets[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
