#!/bin/sh
# Runs a command that must refuse to run: it exits 2 and says why on
# stderr (ctests `*_unknown_option`, `*_bad_*_value`, `serve_bad_dangling`,
# `bench_workload_full_device`).
#
#   usage: check_refused.sh <text stderr must contain> <command> [args...]
want=$1
shift
err=$("$@" 2>&1 > /dev/null < /dev/null)
code=$?
echo "$err"
if [ "$code" -ne 2 ]; then
  echo "FAIL: exit code $code, want 2"
  exit 1
fi
case $err in
  *"$want"*) echo "PASS: exit 2, stderr names '$want'" ;;
  *)
    echo "FAIL: stderr does not contain '$want'"
    exit 1
    ;;
esac
