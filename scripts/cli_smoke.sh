#!/usr/bin/env bash
# lanecert_cli round trip (a ctest case): prove and verify a 6-cycle, which
# must ACCEPT (exit 0), then change the last hex nibble of the first
# certificate, which must REJECT (exit 1) — not crash, not exit 2.  Not
# every nibble change is rejected (a boolean byte reads 0x11 as true, just
# like 0x01), so the position is fixed.
#
# Usage: scripts/cli_smoke.sh <path-to-lanecert_cli>
set -uo pipefail

cli="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

printf '6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n' > "${tmp}/cycle6.txt"
if ! "${cli}" prove "${tmp}/cycle6.txt" connectivity "${tmp}/certs.hex"; then
  echo "cli_smoke: prove failed" >&2
  exit 1
fi
"${cli}" verify "${tmp}/cycle6.txt" connectivity "${tmp}/certs.hex"
rc=$?
if [ "${rc}" -ne 0 ]; then
  echo "cli_smoke: honest certificates: exit ${rc}, expected 0" >&2
  exit 1
fi

# 0 <-> 1 on the first line's last nibble keeps the line valid hex.
awk 'NR == 1 {
       n = length($0)
       $0 = substr($0, 1, n - 1) (substr($0, n, 1) == "0" ? "1" : "0")
     }
     { print }' "${tmp}/certs.hex" > "${tmp}/corrupt.hex"
"${cli}" verify "${tmp}/cycle6.txt" connectivity "${tmp}/corrupt.hex"
rc=$?
if [ "${rc}" -ne 1 ]; then
  echo "cli_smoke: corrupted certificate: exit ${rc}, expected 1" >&2
  exit 1
fi
echo "cli_smoke: OK"
