#!/bin/sh
# loadgen must outlive a server that dies mid-run (ctest
# `serve_loadgen_server_closed`): the stub server below answers the
# `info` handshake and five more lines, then exits with requests still in
# flight. loadgen must exit 1 and say the server closed, not die of
# SIGPIPE on its next write.
#
#   usage: check_loadgen_server_closed.sh <loadgen> <spec>
loadgen=$1
spec=$2
stub='read -r line; echo "info nodes=100"; for i in 1 2 3 4 5; do read -r line || exit 0; echo ok; done'

out=$("$loadgen" --cmd="$stub" --spec="$spec" 2>&1)
code=$?
echo "$out"
if [ "$code" -ne 1 ]; then
  echo "FAIL: loadgen exited $code, want 1"
  exit 1
fi
if ! echo "$out" | grep -q "server closed"; then
  echo "FAIL: loadgen did not report the closed server"
  exit 1
fi
echo "PASS: loadgen exited 1 and reported the closed server"
