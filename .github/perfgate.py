#!/usr/bin/env python3
"""CI gate on the perfbench benchmark declared in BENCHMARK.json.

Usage, from the repository root:

    python3 .github/perfgate.py digests
    python3 .github/perfgate.py ab <base-ref>

digests runs every perfbench workload at seed 1 for 1 s and compares
each printed digest (a hash of every simulated statistic) with
BENCH_perf.json. It fails if a digest differs, a workload is missing or
a workload does not report "correct": true. On a mismatch it prints the
fresh BENCH_perf.json content: a change that alters simulated behaviour
on purpose commits it and says why.

ab measures the merge base of HEAD and <base-ref> against the working
tree on the same machine. The base is exported with `git archive` into
a temporary directory. Each workload BENCHMARK.json gates runs at its
run_seconds in PAIRS pairs, alternating which side runs first; pair i
runs both sides at seed i. The gate fails when the change's median on
an end-to-end metric is worse than the base's by more than that
metric's bound, or when the change fails a larger share of the
operations it attempted.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "BENCH_perf.json")
# An even count runs each side first equally often.
PAIRS = 4
HEADER = re.compile(r"^perfbench (\S+) seed=\d+ .*digest=(\S+)$")


def load(path):
    with open(path) as f:
        return json.load(f)


def run_bench(root, command, workload, seed, seconds):
    """Runs perfbench in checkout root and maps each workload it printed
    to its digest and JSON result (None if it printed none)."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=root, stdout=subprocess.PIPE, text=True,
                         check=False).stdout
    runs, name = {}, None
    for line in out.splitlines():
        m = HEADER.match(line)
        if m:
            name = m.group(1)
            runs[name] = {"digest": m.group(2), "result": None}
        elif line.startswith("{") and name:
            runs[name]["result"] = json.loads(line)
    return runs


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def digests(bench):
    want = load(DIGESTS)
    runs = run_bench(ROOT, bench["command"], "all", want["seed"], 1)
    got = {name: run["digest"] for name, run in runs.items()}
    ok = True
    for name in sorted(set(want["digests"]) | set(got)):
        w, g = want["digests"].get(name), got.get(name)
        result = runs.get(name, {}).get("result") or {}
        correct = result.get("correct") is True
        print(f"{name:16s} committed={w} fresh={g} correct={correct}")
        ok = ok and w == g and correct
    if got != want["digests"]:
        fresh = {"git_sha": git("rev-parse", "HEAD"), "seed": want["seed"],
                 "digests": dict(sorted(got.items()))}
        print("\ndigests differ from BENCH_perf.json; fresh content:")
        print(json.dumps(fresh, indent=2))
    return 0 if ok else 1


def median(results, metric):
    vals = [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]
    return statistics.median(vals) if vals else None


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def ab(bench, ref):
    base_sha = git("merge-base", "HEAD", ref)
    with tempfile.TemporaryDirectory(prefix="perfgate-") as base_root:
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_root], input=archive,
                       check=True)
        print(f"base {base_sha} vs working tree, {PAIRS} pairs of "
              f"{bench['run_seconds']} s")
        return compare(bench, {"base": base_root, "change": ROOT})


def compare(bench, roots):
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        results = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                run = run_bench(roots[side], bench["command"], w, i + 1,
                                bench["run_seconds"]).get(w, {})
                # A run that printed no result attempted one operation
                # and failed it.
                results[side].append(run.get("result") or
                                     {"attempted": 1, "failed": 1, "metrics": {}})
        print(f"\n{w}")
        for m in bench["end_to_end"]:
            b, c = median(results["base"], m["name"]), median(results["change"], m["name"])
            if c is None or not b:
                # A base that never reported the metric cannot gate it.
                ok = ok and c is not None
                print(f"  {m['name']:18s} base={b} change={c} "
                      f"{'FAIL' if c is None else 'not compared'}")
                continue
            worse = (c - b) / b if m["better"] == "lower" else (b - c) / b
            bad = worse > m["bound"]
            ok = ok and not bad
            print(f"  {m['name']:18s} base={b:12.6g} change={c:12.6g} "
                  f"worse={worse:+.3f} bound={m['bound']} {'FAIL' if bad else 'ok'}")
        fb, fc = failed_share(results["base"]), failed_share(results["change"])
        bad = fc > fb
        ok = ok and not bad
        print(f"  {'failed_share':18s} base={fb:.4f} change={fc:.4f} "
              f"{'FAIL' if bad else 'ok'}")
    return 0 if ok else 1


def main(argv):
    sys.stdout.reconfigure(line_buffering=True)
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    if argv == ["digests"]:
        return digests(bench)
    if len(argv) == 2 and argv[0] == "ab":
        return ab(bench, argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
