#!/usr/bin/env bash
# Coverage ledger: which functions of the root package and internal/... does
# no run of the shipped programs execute?
#
# Builds the four cmd/ binaries, the five examples and ./benchmark with
# statement coverage over every memphis package into a temporary directory,
# makes a fixed set of runs, and rewrites COVERAGE.txt with one row per
# function that none of them executes:
#
#   <package>.<function>	<class>	<reason>
#
# The class and reason of a function already listed are carried over from
# the committed file; a newly unrun function gets the class "unclassified".
# So `git diff --exit-code COVERAGE.txt` after a run fails when the set of
# unrun functions changed in either direction. The unrun statement share is
# printed to stderr for information only: it moves with the benchmark's time
# box, the function list does not. Run from the repository root, no
# arguments:
#
#   bash scripts/coverage-ledger.sh
set -euo pipefail
export LC_ALL=C

ledger=COVERAGE.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov"

cover() { go build -cover -coverpkg=memphis/... -o "$tmp/bin/$1" "$2"; }
for c in memphis-bench memphis-run memphis-serve lineage-tool; do
	cover "$c" "./cmd/$c"
done
for e in cleaning en2de gridsearch pnmf quickstart; do
	cover "example-$e" "./examples/$e"
done
cover benchmark ./benchmark

run() { GOCOVERDIR="$tmp/cov" "$tmp/bin/$@" > /dev/null; }
run memphis-bench -quick all
run memphis-bench -mem -plan -json all
for w in reuse-hit fresh-miss pipe-local pipe-multibackend serve-zipf; do
	run benchmark -workload "$w" -seed 1 -seconds 3 -trace 0
done
run memphis-serve -traffic -check
run memphis-serve -tenants 8 -verify -check
run memphis-serve -workload hcv -chaos -verify -check
run memphis-run examples/scripts/ridge.dml
run memphis-run -plan -json -membudget 16384 examples/scripts/ridge.dml
run lineage-tool demo
for e in cleaning en2de gridsearch pnmf quickstart; do
	run "example-$e"
done

go tool covdata textfmt -i="$tmp/cov" -o "$tmp/profile.txt"

# Keep the root package and internal/...; a block several binaries share is
# run if any of them ran it.
awk 'NR > 1 && $1 ~ /^memphis\/([^\/]+\.go|internal\/)/ {
	if ($3 > 0) run[$1] = 1; stmts[$1] = $2
} END {
	for (b in stmts) { total += stmts[b]; if (!(b in run)) unrun += stmts[b] }
	printf "unrun statements in memphis + internal/...: %d of %d (%.1f %%)\n",
		unrun, total, 100 * unrun / total > "/dev/stderr"
}' "$tmp/profile.txt"

# `go tool cover -func` names a method without its receiver; read the
# receiver off the declaration line so that every row names one function.
# An empty body (an interface marker method) has no statement to run.
go tool cover -func="$tmp/profile.txt" |
	awk '$NF == "0.0%" && $1 ~ /^memphis\/([^\/]+\.go|internal\/)/ { print $1 }' |
	while IFS=: read -r file line _; do
		decl=$(sed -n "${line}p" "${file#memphis/}")
		[[ $decl =~ \{[[:space:]]*\}[[:space:]]*$ ]] && continue
		name=$(sed -E 's/^func (\(([a-zA-Z_0-9]+ )?(\*?[A-Za-z_0-9]+)[^)]*\) )?([A-Za-z_0-9]+).*/\3.\4/; s/^\.//; s/^(\*[^.]+)\./(\1)./' <<< "$decl")
		echo "${file%/*}.$name"
	done | sort -u > "$tmp/unrun.txt"

{
	cat << 'EOF'
# Functions of the root package and internal/... that no run of
# scripts/coverage-ledger.sh executes. Regenerate with that script; CI fails
# when the list differs. One row per function, tab-separated:
#
#   <function>	<class>	<reason>
#
# error  a defensive path; the reason names a test that reaches it.
# paper  a mechanism no experiment reaches; the reason names the ROADMAP item
#        that will run it or judge it.
# api    exported from the root memphis package, or a fmt.Stringer; the
#        reason names a test that reaches it.
# hook   an accessor or checker that tests of another package use; the
#        reason names one.
EOF
	if [ -f "$ledger" ]; then
		awk -F'\t' 'NR == FNR { if ($0 !~ /^#/ && NF >= 3) keep[$1] = $2 "\t" $3; next }
			{ print $1 "\t" ($1 in keep ? keep[$1] : "unclassified\t-") }' "$ledger" "$tmp/unrun.txt"
	else
		awk '{ print $1 "\tunclassified\t-" }' "$tmp/unrun.txt"
	fi
} > "$tmp/ledger.txt"
mv "$tmp/ledger.txt" "$ledger"
echo "$(grep -vc '^#' "$ledger") unrun functions written to $ledger" >&2
