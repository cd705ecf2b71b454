#!/bin/sh
# Overwrites 64 out_targets of a valid .rsg snapshot with 0x7FFFFF00 and
# checks that resacc_serve and resacc refuse the graph (exit 1) instead of
# crashing on the first query that reads the bad edges.
#
#   check_corrupt_snapshot.sh <resacc> <resacc_serve> <graph> <scratch.rsg>
set -u
resacc=$1
serve=$2
graph=$3
rsg=$4
"$resacc" convert "$graph" "$rsg" > /dev/null || exit 1
# Header bytes 48..55 hold the file offset of the out_targets section.
offset=$(od -An -t u8 -j 48 -N 8 "$rsg" | tr -d ' ')
i=0
while [ "$i" -lt 64 ]; do
  printf '\000\377\377\177'
  i=$((i + 1))
done | dd of="$rsg" bs=1 seek="$offset" conv=notrunc 2> /dev/null
printf 'query 0\nquit\n' | "$serve" "$rsg"
serve_status=$?
"$resacc" query "$rsg" --source=0
cli_status=$?
if [ "$serve_status" -ne 1 ] || [ "$cli_status" -ne 1 ]; then
  echo "exit codes on a corrupt snapshot: resacc_serve $serve_status," \
    "resacc $cli_status; expected 1 and 1" >&2
  exit 1
fi
