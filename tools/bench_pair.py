#!/usr/bin/env python3
"""Paired parent/change benchmark runs, written to a checked-in ledger.

The protocol of `choosing-metrics` §8 on the repository benchmark
(`BENCHMARK.json`): export the parent and the change into two fresh
directories, build each once, run >= 10 alternating parent/change pairs of
the `BENCHMARK.json` command on the claimed workload, then 5 alternating
pairs of every other workload, round-robin, and record every run. A gain is
claimed only when the change wins at least nine tenths of the pairs (ties
count for neither) and the medians are further apart than the parent's own
quartile distance; every other workload and metric gets the no-claim
verdict below.

    # measure: the staged index against HEAD, both seeds, write the ledger
    tools/bench_pair.py --parent HEAD --change INDEX --workload fleet_steady \
        --metric pkts_per_s --seeds 7,1016 --pairs 10 --out BENCH_15.json
    # no claim (omit --workload): >= 5 alternating pairs of *every* workload,
    # and per (metric, workload) a verdict against the BENCHMARK.json bound:
    # ok, regressed, or unresolved
    tools/bench_pair.py --parent HEAD --change INDEX --seeds 7,1016 --out BENCH_18.json
    # CI: re-judge a ledger from its recorded runs; fail if a RunReport digest
    # pair differs, the claim does not follow from the pairs, any metric
    # regressed beyond its bound, or more operations failed on the change
    # side. Also
    # prints (never fails on) the drift since the previous ledger beside it:
    # that ledger's change medians against this one's parent medians
    tools/bench_pair.py --check BENCH_15.json

A side is a git revision (exported with `git archive`) or the literal
`INDEX`, the staged index (`git checkout-index`) — what a not-yet-committed
PR is. Either way a side is exactly the tracked files in a new directory,
which is how the benchmark driver runs them.
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Pairs of each workload without a claim: of every workload in a no-claim
# ledger (the minimum), of every other workload in a claim ledger.
OTHER_PAIRS = 5
DIGEST = re.compile(r"RunReport fnv ([0-9a-f]+)")
LEDGER = re.compile(r"BENCH_(\d+)\.json$")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def git(*args):
    return subprocess.run(
        ("git", "-C", REPO) + args, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(side, into):
    """Materialises `side` under `into`; returns what identifies its source."""
    os.makedirs(into)
    if side == "INDEX":
        subprocess.run(
            ("git", "-C", REPO, "checkout-index", "-a", "-f", f"--prefix={into}/"),
            check=True,
        )
        return {"rev": git("rev-parse", "HEAD") + "+index", "tree": git("write-tree")}
    rev = git("rev-parse", side)
    archive = subprocess.Popen(("git", "-C", REPO, "archive", rev), stdout=subprocess.PIPE)
    subprocess.run(("tar", "-x", "-C", into), stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return {"rev": rev, "tree": git("rev-parse", f"{rev}^{{tree}}")}


def build(command, cwd):
    """Builds what `command` runs, so no timed run pays for compilation."""
    if command[:2] != ["cargo", "run"]:
        raise SystemExit("BENCHMARK.json command is not `cargo run ...`; teach build() about it")
    subprocess.run(["cargo", "build"] + [a for a in command[2:] if a != "--"], cwd=cwd, check=True)


def host_cpu_ticks():
    """The aggregate `cpu` line of `/proc/stat`: (busy, steal) clock ticks
    since boot, busy being user + nice + system + irq + softirq; None where
    there is no `/proc/stat`."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(command, cwd, workload, seed, seconds):
    """One `--workload` run: the end-to-end metrics, the operation counts,
    the RunReport digest it printed and what else the host did meanwhile —
    the CPU seconds stolen from this guest and those other processes spent
    (the host's busy time less the run's own). `/proc/stat` counts clock
    ticks and the kernel splits a run's own time more finely, so the two
    disagree by up to a few tenths of a second: a figure that small,
    negative ones included, says nothing else ran."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    ticks, own = host_cpu_ticks(), children_cpu_s()
    done = subprocess.run(command + args, cwd=cwd, capture_output=True, text=True)
    ticks_after, own = host_cpu_ticks(), children_cpu_s() - own
    if done.returncode != 0:
        raise SystemExit(f"{workload} failed in {cwd}:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    digest = DIGEST.search(done.stdout)
    return {
        "metrics": {name: row["value"] for name, row in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digest.group(1) if digest else None,
        "host": None if ticks is None or ticks_after is None else {
            "steal_s": (ticks_after[1] - ticks[1]) / CLOCK_TICKS,
            "other_cpu_s": (ticks_after[0] - ticks[0]) / CLOCK_TICKS - own,
        },
    }


def host_load(pairs):
    """The largest steal and other-process CPU seconds of any run in
    `pairs`, as printed beside a verdict; `-` for ledgers that predate the
    record."""
    hosts = [p[side].get("host") for p in pairs for side in ("parent", "change")]
    if not all(hosts):
        return "-"
    return (f"steal <= {max(h['steal_s'] for h in hosts):.2f} s, other CPU <="
            f" {max(h['other_cpu_s'] for h in hosts):.2f} s")


def one_digest(runs):
    """The digest every run printed — or all of them, if one side's runs
    already disagree (which `check` then reports as a difference)."""
    found = sorted({run["digest"] for run in runs})
    return found[0] if len(found) == 1 else found


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def judge(pairs, metric, higher_is_better):
    """The §8 rule over the recorded pairs."""
    parent, change = (
        [p[side]["metrics"][metric] for p in pairs] for side in ("parent", "change")
    )
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    parent_stats, change_stats = spread(parent), spread(change)
    gap = sign * (change_stats["median"] - parent_stats["median"])
    return {
        "metric": metric,
        "pairs": len(pairs),
        "wins": wins,
        "ties": ties,
        "parent": parent_stats,
        "change": change_stats,
        "median_ratio": change_stats["median"] / parent_stats["median"],
        "gain": wins >= 0.9 * len(pairs) and gap > parent_stats["q3"] - parent_stats["q1"],
    }


def no_regression(pairs, metric, higher_is_better, bound):
    """The no-claim rule over the recorded pairs of one workload: `ok` when
    the change's median is no worse than the parent's by more than `bound`
    (a share of the parent's median); `regressed` when it is; `unresolved`
    when the parent's own quartile distance is wider than the bound and the
    two sides' runs overlap, so these runs cannot tell."""
    parent, change = (
        [p[side]["metrics"][metric] for p in pairs] for side in ("parent", "change")
    )
    sign = 1 if higher_is_better else -1
    parent_stats, change_stats = spread(parent), spread(change)
    allowed = bound * parent_stats["median"]
    if parent_stats["q3"] - parent_stats["q1"] > allowed:
        apart = min(change) > max(parent) if higher_is_better else max(change) < min(parent)
        verdict = "ok" if apart else "unresolved"
    elif sign * (parent_stats["median"] - change_stats["median"]) > allowed:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {
        "metric": metric,
        "pairs": len(pairs),
        "parent": parent_stats,
        "change": change_stats,
        "median_ratio": change_stats["median"] / parent_stats["median"],
        "bound": bound,
        "verdict": verdict,
    }


def measure(args):
    bench = benchmark()
    command, seconds = bench["command"], bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    claimed = args.workload is not None
    if claimed and (args.workload not in workloads or args.metric not in better):
        raise SystemExit(f"unknown workload or metric; have {workloads} x {list(better)}")
    least = 10 if claimed else OTHER_PAIRS
    pair_count = args.pairs or least
    if pair_count < least:
        raise SystemExit(f"the protocol needs at least {least} pairs")

    scratch = tempfile.mkdtemp(prefix="bench_pair_", dir=args.scratch)
    dirs = {side: os.path.join(scratch, side) for side in ("parent", "change")}
    ledger = {
        "protocol": "choosing-metrics §8: alternating parent/change pairs of the BENCHMARK.json command",
        "command": command,
        "run_seconds": seconds,
        "nproc": os.cpu_count(),
        "parent": export(args.parent, dirs["parent"]),
        "change": export(args.change, dirs["change"]),
        "claim": {"workload": args.workload, "metric": args.metric} if claimed else None,
        "seeds": {},
    }
    for cwd in dirs.values():
        build(command, cwd)

    def pair(i, workload, seed):
        """Both sides once; which goes first alternates with `i`."""
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run(command, dirs[side], workload, seed, seconds) for side in order}
        return {"first": order[0], **runs}

    def claimed_seed(seed):
        pairs = []
        for i in range(pair_count):
            pairs.append(pair(i, args.workload, seed))
            print(f"seed {seed} pair {i + 1}/{pair_count}:",
                  *(f"{side} {pairs[-1][side]['metrics'][args.metric]:.6g}" for side in dirs),
                  flush=True)
        verdict = judge(pairs, args.metric, better[args.metric] == "higher")
        print(f"seed {seed}: {verdict}", flush=True)
        others = no_claim_seed(seed, [w for w in workloads if w != args.workload], OTHER_PAIRS)
        others["digests"][args.workload] = {side: one_digest(p[side] for p in pairs) for side in dirs}
        # The claimed workload's pairs also answer for its other metrics.
        others["verdicts"][args.workload] = verdicts(pairs)
        return {"verdict": verdict, "pairs": pairs, **others}

    def no_claim_seed(seed, names, count):
        # Round-robin over the workloads, so host drift during the session
        # spreads over all of them instead of landing on one.
        runs = {name: [] for name in names}
        for i in range(count):
            for name in names:
                runs[name].append(pair(i, name, seed))
                print(f"seed {seed} pair {i + 1}/{count} {name}:",
                      *(f"{side} {runs[name][-1][side]['metrics']['pkts_per_s']:.6g}" for side in dirs),
                      flush=True)
        by_workload = {name: verdicts(pairs) for name, pairs in runs.items()}
        for name, by_metric in by_workload.items():
            print(f"seed {seed} {name}:", {m: v["verdict"] for m, v in by_metric.items()}, flush=True)
        digests = {name: {side: one_digest(p[side] for p in pairs) for side in dirs}
                   for name, pairs in runs.items()}
        return {"verdicts": by_workload, "workloads": runs, "digests": digests}

    def verdicts(pairs):
        return {m["name"]: no_regression(pairs, m["name"], m["better"] == "higher", m["bound"])
                for m in bench["end_to_end"]}

    for seed in args.seeds:
        ledger["seeds"][str(seed)] = (
            claimed_seed(seed) if claimed else no_claim_seed(seed, workloads, pair_count)
        )

    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}; exports and builds left in {scratch}")
    return check(args.out)


def benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def failure_share_rose(sides):
    """True when the change failed a larger share of what it attempted."""
    parent, change = sides["parent"], sides["change"]
    return change["failed"] * parent["attempted"] > parent["failed"] * change["attempted"]


def pairs_by_workload(block, claim):
    """Every pair one seed of a ledger records, by workload: all of a
    no-claim ledger's, or a claim ledger's claimed pairs plus the pairs it
    ran of each other workload (one each, in ledgers before `BENCH_42.json`;
    those are judged by their digests and failure shares alone)."""
    if "workloads" in block:
        by_workload = dict(block["workloads"])
    else:
        by_workload = {name: [pair] for name, pair in block["others"].items()}
    if "pairs" in block:
        by_workload[claim["workload"] if claim else "?"] = block["pairs"]
    return by_workload


def drift(path, ledger, end_to_end):
    """Prints, per seed, workload and end-to-end metric, the change median of
    the previous ledger — the highest-numbered `BENCH_<m>.json` beside
    `path` with m below its own number — against this ledger's parent
    median. The two sides are the same code or nearly so (one PR's change is
    the next one's parent), measured in different sessions, so what moves
    between them is the host. Print only, never a failure: it is there so a
    reader does not compare numbers across ledgers — they are comparable
    only inside a pair."""
    here = LEDGER.match(os.path.basename(path))
    if not here:
        return
    folder = os.path.dirname(os.path.abspath(path))
    numbered = {int(m.group(1)): name for name in os.listdir(folder) if (m := LEDGER.match(name))}
    earlier = [n for n in numbered if n < int(here.group(1))]
    if not earlier:
        return
    name = numbered[max(earlier)]
    with open(os.path.join(folder, name)) as f:
        previous = json.load(f)
    print(f"drift since {name} (its change {previous['change']['rev'][:7]}, this parent"
          f" {ledger['parent']['rev'][:7]}): print only, numbers are comparable only inside a pair")
    for seed, block in ledger["seeds"].items():
        if seed not in previous["seeds"]:
            continue
        before = pairs_by_workload(previous["seeds"][seed], previous.get("claim"))
        for workload, pairs in sorted(pairs_by_workload(block, ledger.get("claim")).items()):
            for m in end_to_end:
                was = [p["change"]["metrics"][m["name"]] for p in before.get(workload, [])]
                now = [p["parent"]["metrics"][m["name"]] for p in pairs]
                if not was:
                    continue
                was_median, now_median = statistics.median(was), statistics.median(now)
                ratio = now_median / was_median
                beyond = "" if abs(ratio - 1) <= m["bound"] else f", beyond the {m['bound']:.0%} bound"
                print(f"seed {seed:>5} {workload:<16} {m['name']:<10} previous change"
                      f" {was_median:.6g} ({len(was)} runs) -> this parent"
                      f" {now_median:.6g} ({len(now)} runs) (x{ratio:.3f}){beyond}")


def check(path):
    """Re-judges a ledger from the runs it records. Fails (returns 1) if a
    parent/change digest pair differs, if the ledger names a claim that the
    section 8 rule does not grant on its recorded pairs (or whose recorded
    verdict is not what `judge` computes from them), if a metric the ledger
    records a no-claim verdict for (every metric of every workload; claim
    ledgers before `BENCH_42.json` record none) regressed beyond its `BENCHMARK.json` bound (or has a recorded verdict
    that is not what `no_regression` computes), or if any recorded
    pair of runs failed a larger share of its operations on the change side.
    Each no-claim verdict is printed with the largest steal and other-process
    CPU seconds of its runs, so a slow side can be told from a busy host.
    An `unresolved` verdict is printed, not failed: it says these runs cannot
    tell, which is what the ledger is there to record. Ends with the drift
    since the previous ledger (see `drift`), which never fails."""
    with open(path) as f:
        ledger = json.load(f)
    claim = ledger.get("claim")
    end_to_end = benchmark()["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bad = 0
    for seed, block in ledger["seeds"].items():
        for workload, sides in sorted(block["digests"].items()):
            same = isinstance(sides["parent"], str) and sides["parent"] == sides["change"]
            bad += not same
            print(f"seed {seed:>5} {workload:<16} parent {sides['parent']} change {sides['change']}"
                  f" {'identical' if same else 'DIFFERENT'}")
        runs = [(name, pair) for name, pairs in sorted(pairs_by_workload(block, claim).items())
                for pair in pairs]
        for workload, sides in runs:
            if failure_share_rose(sides):
                bad += 1
                print(f"seed {seed:>5} {workload:<16} failed/attempted ROSE: parent"
                      f" {sides['parent']['failed']}/{sides['parent']['attempted']} change"
                      f" {sides['change']['failed']}/{sides['change']['attempted']}")
        if claim:
            verdict = judge(block["pairs"], claim["metric"], better[claim["metric"]] == "higher")
            followed = verdict == block["verdict"]
            bad += not (verdict["gain"] and followed)
            print(f"seed {seed:>5} claim {claim['workload']}/{claim['metric']}: {verdict['wins']}/"
                  f"{verdict['pairs']} pairs won, medians {verdict['parent']['median']:.6g} ->"
                  f" {verdict['change']['median']:.6g} (x{verdict['median_ratio']:.3f}), parent"
                  f" quartile distance {verdict['parent']['q3'] - verdict['parent']['q1']:.6g}:"
                  f" {'GRANTED' if verdict['gain'] else 'NOT MET'}"
                  f"{'' if followed else ', and the recorded verdict DIFFERS'}")
        for workload, pairs in sorted(pairs_by_workload(block, claim).items()):
            if workload not in block.get("verdicts", {}):
                continue
            for m in end_to_end:
                verdict = no_regression(pairs, m["name"], m["better"] == "higher", m["bound"])
                followed = verdict == block["verdicts"][workload][m["name"]]
                bad += verdict["verdict"] == "regressed" or not followed
                print(f"seed {seed:>5} {workload:<16} {m['name']:<10} {verdict['pairs']} pairs, medians"
                      f" {verdict['parent']['median']:.6g} -> {verdict['change']['median']:.6g}"
                      f" (x{verdict['median_ratio']:.3f}), parent quartile distance"
                      f" {verdict['parent']['q3'] - verdict['parent']['q1']:.6g}, bound"
                      f" {m['bound']:.0%}: {verdict['verdict'].upper()}"
                      f"{'' if followed else ', and the recorded verdict DIFFERS'}; host {host_load(pairs)}")
    if not ledger["seeds"]:
        print(f"{path}: no seeds recorded")
        bad += 1
    drift(path, ledger, end_to_end)
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", metavar="LEDGER",
                        help="only re-judge a ledger: digest pairs, the claim rule, failure shares")
    parser.add_argument("--parent", default="HEAD", help="git revision or INDEX")
    parser.add_argument("--change", default="INDEX", help="git revision or INDEX")
    parser.add_argument("--workload",
                        help="the workload the claim is about; omit to measure a no-claim ledger of every workload")
    parser.add_argument("--metric", default="pkts_per_s", help="the end-to-end metric claimed")
    parser.add_argument("--seeds", default="7", type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--pairs", type=int, help="default and minimum: 10 with a claim, 5 per workload without")
    parser.add_argument("--out", help="ledger file to write")
    parser.add_argument("--scratch", help="where the two exports are built (default: the system temp dir)")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    if not args.out:
        parser.error("measuring needs --out")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
