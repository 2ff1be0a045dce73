#!/usr/bin/env python3
"""Run alternating base/head pairs of the repository benchmark and write the
summary that a change's perf claim cites (BENCH_<n>.json).

    python3 tools/bench_pairs.py --base REV --head REV --seeds 301 302 ... \
        --out BENCH_6.json [--trace-seed N [N ...]] [--workdir DIR]

Run it from the repository root. Each side is exported with `git archive REV`
into its own directory under --workdir (default .bench_pairs/, gitignored);
the revision WORKTREE exports the working tree's tracked and untracked,
non-ignored files instead. perfbench/run.py builds and runs each side in its
own export, so both sides run the benchmark code of their own revision.

Pair i runs seed seeds[i] on both sides, the base first on even pairs and the
head first on odd ones, for every workload that BENCHMARK.json names and for
its run_seconds. For every end-to-end metric it names, the output holds each
side's runs, their q1, median and q3, how many pairs each side won (ties
count for neither), the head's relative change of the median in the
metric's better direction, and whether the head's gain clears the rule a
claimed gain must meet: it wins at least nine tenths of the pairs and the
medians differ by more than the base's interquartile range. Two regression
verdicts go with it: `within_bound` holds when the head's median is worse
than the base's by no more than the metric's `bound` (a fraction of the
base's median), and `unresolved` holds when the base's interquartile range is
wider than that bound and not every head run beats every base run, so the
runs cannot tell a regression within the bound from noise. Failed and
attempted operations are summed per side.
With --trace-seed, one traced run per side, workload and trace seed adds
the per-layer metrics (the base first on even trace seeds, the head first on
odd ones); each side's value of a metric is its median over the trace seeds,
and with more than one trace seed every run's value is kept as well.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Export `rev` (or the working tree, for WORKTREE) into `dest`; returns
    the commit it names, or the working tree's base commit and "+worktree"."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == "WORKTREE":
        files = git("ls-files", "-co", "--exclude-standard", "-z").split("\0")
        for f in files:
            if f and os.path.isfile(f):
                os.makedirs(os.path.join(dest, os.path.dirname(f)), exist_ok=True)
                shutil.copy2(f, os.path.join(dest, f))
        return git("rev-parse", "HEAD") + "+worktree"
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    archive = dest + ".tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", sha], check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    os.remove(archive)
    return sha


def run(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; returns its JSON result (last line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} failed:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarise(metric, base_runs, head_runs):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for b, h in zip(base_runs, head_runs) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base_runs, head_runs) if sign * (h - b) < 0)
    bq1, bmed, bq3 = quartiles(base_runs)
    hq1, hmed, hq3 = quartiles(head_runs)
    gain = sign * (hmed - bmed)
    bound = metric["bound"] * abs(bmed)
    every_head_run_better = all(sign * (h - b) > 0 for h in head_runs for b in base_runs)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": {"q1": bq1, "median": bmed, "q3": bq3, "runs": base_runs},
        "head": {"q1": hq1, "median": hmed, "q3": hq3, "runs": head_runs},
        "head_wins": wins,
        "base_wins": losses,
        "pairs": len(base_runs),
        "head_rel_change": gain / abs(bmed) if bmed else None,
        "claimable_gain": wins >= 0.9 * len(base_runs) and gain > bq3 - bq1,
        "within_bound": gain >= -bound,
        "unresolved": bq3 - bq1 > bound and not every_head_run_better,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="base revision (the parent)")
    ap.add_argument("--head", required=True, help="head revision, or WORKTREE")
    ap.add_argument("--seeds", required=True, type=int, nargs="+", help="one seed per pair")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-seed", type=int, nargs="+", default=None)
    ap.add_argument("--workdir", default=".bench_pairs")
    args = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    sides = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        dest = os.path.abspath(os.path.join(args.workdir, side))
        sides[side] = {"rev": export(rev, dest), "dir": dest}

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    workloads = {}
    for wl in (w["name"] for w in bench["workloads"]):
        results = {"base": [], "head": []}
        for i, seed in enumerate(args.seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                res = run(sides[side]["dir"], wl, seed, seconds, trace=False)
                results[side].append(res)
                print(f"bench_pairs: {wl} seed {seed} {side}: "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                      file=sys.stderr)
        entry = {
            "metrics": {
                m["name"]: summarise(m, [r["metrics"][m["name"]]["value"] for r in results["base"]],
                                     [r["metrics"][m["name"]]["value"] for r in results["head"]])
                for m in bench["end_to_end"]
            },
            "operations": {
                side: {
                    "attempted": sum(r["attempted"] for r in results[side]),
                    "failed": sum(r["failed"] for r in results[side]),
                    "incorrect_runs": sum(1 for r in results[side] if not r["correct"]),
                }
                for side in ("base", "head")
            },
        }
        if args.trace_seed is not None:
            traced = {"base": [], "head": []}
            for i, seed in enumerate(args.trace_seed):
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    res = run(sides[side]["dir"], wl, seed, seconds, trace=True)
                    traced[side].append({k: v["value"] for k, v in res["metrics"].items()})
            seeds = args.trace_seed
            entry["traced"] = {"seed": seeds[0]} if len(seeds) == 1 else {"seeds": seeds}
            for side in ("base", "head"):
                names = sorted(set().union(*traced[side]))
                entry["traced"][side] = {
                    k: statistics.median(r[k] for r in traced[side] if k in r) for k in names
                }
                if len(seeds) > 1:
                    entry["traced"][side + "_runs"] = {k: [r.get(k) for r in traced[side]] for k in names}
        workloads[wl] = entry

    summary = {
        "base": sides["base"]["rev"],
        "head": sides["head"]["rev"],
        "started": started,
        "settings": {"seconds": seconds, "seeds": args.seeds, "order": "alternating, base first on even pairs",
                     "nproc": len(os.sched_getaffinity(0))},
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
