#!/usr/bin/env bash
# abbench.sh — same-host A/B of one benchmark set between two commits.
#
# Usage: scripts/abbench.sh BASE HEAD REGEX [N] [PKG] [BENCHTIME]
#
#   BASE, HEAD  any commit-ish (branch, tag, hash)
#   REGEX       go test -bench pattern, e.g. 'E7Universal|E12Randomized'
#   N           alternating pairs of runs (default 10)
#   PKG         package directory holding the benchmarks (default .)
#   BENCHTIME   go test -benchtime per run (default 1s)
#
# Both commits are checked out into temporary git worktrees, and each
# side's test binary is built once, before any run, so compilation never
# overlaps a measurement. The script then runs N pairs of `-bench REGEX`,
# one base run and one head run per pair, alternating which goes first so
# that drift in the host's load hits both sides alike. For every
# benchmark it prints each side's median ns/op with its quartiles, the
# head/base ratio of the medians, and how many pairs head won (lower
# ns/op). A comparison of records taken on different machines or at
# different times is not a perf claim; this is the A/B that is.
#
# Example (E7 and E12 against PR 5, 20 iterations per run):
#   scripts/abbench.sh b66c70b HEAD 'E7Universal$|E12Randomized$' 10 . 20x
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '4,11p' "$0" >&2
  exit 2
fi
base="$1" head="$2" regex="$3" pairs="${4:-10}" pkg="${5:-.}" benchtime="${6:-1s}"
repo="$(git rev-parse --show-toplevel)"
work="$(mktemp -d)"
cleanup() {
  for side in base head; do
    if [ -d "$work/$side" ]; then
      git -C "$repo" worktree remove --force "$work/$side" >/dev/null 2>&1 || true
    fi
  done
  git -C "$repo" worktree prune
  rm -rf "$work"
}
trap cleanup EXIT

for side in base head; do
  rev="$base"
  [ "$side" = head ] && rev="$head"
  git -C "$repo" worktree add --detach --quiet "$work/$side" "$rev"
  echo "== building $side ($(git -C "$repo" rev-parse --short "$rev")) $pkg" >&2
  (cd "$work/$side/$pkg" && go test -c -o "$work/$side.test" .)
done

run() { # side pair
  (cd "$work/$1/$pkg" && "$work/$1.test" -test.run '^$' -test.bench "$regex" -test.benchtime "$benchtime" -test.timeout 30m) |
    awk -v side="$1" -v pair="$2" '/^Benchmark/ && $4 == "ns/op" { print side, pair, $1, $3 }' >>"$work/samples"
}

: >"$work/samples"
for ((i = 1; i <= pairs; i++)); do
  echo "== pair $i/$pairs" >&2
  if ((i % 2)); then
    run base "$i"
    run head "$i"
  else
    run head "$i"
    run base "$i"
  fi
done

python3 - "$work/samples" "$pairs" <<'EOF'
import collections, statistics, sys

samples = collections.defaultdict(dict)  # name -> {(side, pair): ns}
for line in open(sys.argv[1]):
    side, pair, name, ns = line.split()
    samples[name][side, int(pair)] = float(ns)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'benchmark':<40} {'base median [q1, q3] ns/op':>34} {'head median [q1, q3] ns/op':>34} {'head/base':>9} {'head wins':>9}")
for name in sorted(samples):
    s = samples[name]
    pairs = sorted(p for side, p in s if side == "base" and ("head", p) in s)
    if not pairs:
        continue
    b = [s["base", p] for p in pairs]
    h = [s["head", p] for p in pairs]
    bq, hq = quartiles(b), quartiles(h)
    wins = sum(s["head", p] < s["base", p] for p in pairs)
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"{name:<40} {fmt(bq):>34} {fmt(hq):>34} {hq[1] / bq[1]:>9.3f} {wins:>4}/{len(pairs):<4}")
EOF
