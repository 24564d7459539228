#!/usr/bin/env bash
# Run a filtered test command and fail unless it ran a test.
#
#   bash .github/tests-ran.sh cargo test --release --test paxos_commit kill_9
#
# A name filter that matches nothing (every matching test renamed, say)
# still exits 0 and prints "test result: ok. 0 passed". This prints the
# command's output, fails when the command fails, and fails when the
# "test result" lines count no passed test between them.
set -uo pipefail
out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || exit "$status"
passed=$(printf '%s\n' "$out" | grep -oE '^test result: ok\. [0-9]+ passed' | awk '{n += $4} END {print n + 0}')
if [ "$passed" -eq 0 ]; then
    echo "no test ran: $*" >&2
    exit 1
fi
