#!/usr/bin/env bash
# bench-compare.sh BASE COUNT BENCH PKG...
#
# Compares Go benchmarks between git revision BASE and the working tree.
# It builds the test binary of every PKG twice: from BASE, unpacked with
# `git archive` into a temporary directory under ${TMPDIR:-/tmp}, and
# from the working tree. Then it runs the binaries matching BENCH in
# alternating rounds (base then tree, tree then base, ...), COUNT rounds
# in all, each binary in its own package directory and for
# ${BENCHTIME:-1s} (a -test.benchtime value) per benchmark. Last it prints, per
# benchmark and unit (ns/op, B/op, allocs/op and any custom metric), the
# median of each side and the change in percent. Building first and
# alternating the runs keeps compiles and slow drifts of the host out of
# the comparison. Nothing is downloaded: both sides build with the
# toolchain and module cache at hand. `make bench-compare` runs it over
# the bench target's packages.
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: $0 BASE COUNT BENCH PKG..." >&2
	exit 2
fi
base=$1 count=$2 bench=$3
shift 3
pkgs=("$@")
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-compare.XXXXXX")
# A signal stops the running test binary, and waits for it, before the
# temporary directory goes: each binary runs in the background under
# `wait`, so the trap fires at once instead of after the benchmark.
child=
cleanup() {
	if [ -n "$child" ]; then
		kill "$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

mkdir -p "$work/src" "$work/bin/base" "$work/bin/tree"
git -C "$root" archive "$base" | tar -x -C "$work/src"
echo "building ${#pkgs[@]} packages at $base and in the working tree" >&2
i=0
for pkg in "${pkgs[@]}"; do
	i=$((i + 1))
	(cd "$work/src" && go test -c -o "$work/bin/base/$i.test" "$pkg")
	(cd "$root" && go test -c -o "$work/bin/tree/$i.test" "$pkg")
done

# run SIDE DIR appends one run of every package's benchmarks to results,
# one line per metric: side, package, benchmark, unit, value.
run() {
	local side=$1 dir=$2 i=0 pkg
	for pkg in "${pkgs[@]}"; do
		i=$((i + 1))
		(cd "$dir/$pkg" && exec "$work/bin/$side/$i.test" -test.run '^$' -test.bench "$bench" -test.benchtime "${BENCHTIME:-1s}" -test.benchmem -test.count 1 -test.timeout 10m) >"$work/out" &
		child=$!
		wait "$child"
		child=
		awk -v side="$side" -v pkg="$pkg" '/^Benchmark/ { for (k = 3; k < NF; k += 2) print side, pkg, $1, $(k + 1), $k }' "$work/out" >>"$work/results"
	done
}
: >"$work/results"
for ((r = 1; r <= count; r++)); do
	echo "round $r of $count" >&2
	if ((r % 2)); then
		run base "$work/src"
		run tree "$root"
	else
		run tree "$root"
		run base "$work/src"
	fi
done

# Medians per (package, benchmark, unit, side), side by side.
sort -k2,2 -k3,3 -k4,4 -k1,1 -k5,5g "$work/results" | awk -v base="$base" '
	function flush() {
		if (n == 0) return
		med[group] = (n % 2) ? vals[(n + 1) / 2] : (vals[n / 2] + vals[n / 2 + 1]) / 2
		n = 0
	}
	{
		g = $2 " " $3 " " $4 SUBSEP $1
		if (g != group) { flush(); group = g }
		vals[++n] = $5
		if (!($2 " " $3 " " $4 in seen)) { seen[$2 " " $3 " " $4]; order[++rows] = $2 " " $3 " " $4 }
	}
	END {
		flush()
		printf "%-24s %-40s %-14s %14s %14s %9s\n", "package", "benchmark", "unit", base, "tree", "delta"
		for (r = 1; r <= rows; r++) {
			split(order[r], f, " ")
			kb = order[r] SUBSEP "base"; kt = order[r] SUBSEP "tree"
			b = (kb in med) ? sprintf("%.6g", med[kb]) : "-"
			t = (kt in med) ? sprintf("%.6g", med[kt]) : "-"
			d = (kb in med && kt in med && med[kb] != 0) ? sprintf("%+.1f%%", 100 * (med[kt] - med[kb]) / med[kb]) : "-"
			printf "%-24s %-40s %-14s %14s %14s %9s\n", f[1], f[2], f[3], b, t, d
		}
	}'
