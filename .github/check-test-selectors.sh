#!/usr/bin/env bash
# Checks the test selectors of a workflow file: every alternative of every
# -run, -bench and -fuzz regexp on a `go test` line must match at least one
# test, benchmark, fuzz target or example (`go test -list`) in that line's
# packages. A selector whose test was renamed or deleted otherwise selects
# nothing and passes silently. The '^$' selector (run nothing) is skipped.
#
# Usage: bash .github/check-test-selectors.sh [workflow.yml]
# (default .github/workflows/ci.yml), from the module root.
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
declare -A names # package -> its `go test -list` names, one per line
status=0

while read -r -a words; do
	pkgs=()
	sels=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]//\'/}
		case $w in
		-run | -bench | -fuzz)
			i=$((i + 1))
			sels+=("$w ${words[i]//\'/}")
			;;
		./*) pkgs+=("$w") ;;
		esac
	done
	((${#sels[@]})) || continue
	all=""
	for p in "${pkgs[@]}"; do
		if [[ -z ${names[$p]+set} ]]; then
			names[$p]=$(go test -list '.*' "$p" | grep -v '^ok ' || true)
		fi
		all+="${names[$p]}"$'\n'
	done
	for s in "${sels[@]}"; do
		flag=${s%% *} re=${s#* }
		[[ $re == '^$' ]] && continue
		IFS='|' read -r -a alts <<<"$re"
		for a in "${alts[@]}"; do
			if ! grep -qE -- "$a" <<<"$all"; then
				echo "$workflow: $flag alternative '$a' matches nothing in ${pkgs[*]}" >&2
				status=1
			fi
		done
	done
done < <(grep -E '^[[:space:]]*(run:[[:space:]]*)?go test ' "$workflow" | sed -E 's/^[[:space:]]*(run:[[:space:]]*)?go test //')

exit $status
