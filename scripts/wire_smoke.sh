#!/usr/bin/env bash
# Wire-level end-to-end smoke: boots the serving daemon on loopback,
# byte-compares a streamed certificate against the in-process reference,
# and exercises the SIGTERM graceful drain.  Throughput under load is the
# benchmark's job (the CI lcbench job's wire_hot floor).
#
# Usage: scripts/wire_smoke.sh [build-dir]
#
# Checks, each fatal:
#   1. serverd binds and prints its ephemeral port;
#   2. `wire_fetch fetch` over the socket == `wire_fetch local` in-process,
#      byte for byte (the network boundary adds exactly nothing);
#   3. SIGTERM drains: the daemon exits 0 within the grace window.
set -uo pipefail

build="${1:-build}"

for bin in lanecert_serverd wire_fetch; do
  if [ ! -x "${build}/${bin}" ]; then
    echo "wire_smoke: ${build}/${bin} missing (build it first)" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
serverd_pid=""
cleanup() {
  if [ -n "${serverd_pid}" ] && kill -0 "${serverd_pid}" 2>/dev/null; then
    kill -KILL "${serverd_pid}" 2>/dev/null
  fi
  rm -rf "${tmp}"
}
trap cleanup EXIT

"${build}/lanecert_serverd" --drain-grace-ms 3000 \
  > "${tmp}/serverd.out" 2> "${tmp}/serverd.err" &
serverd_pid=$!

# The daemon prints "listening <addr> <port>" once bound.
port=""
for _ in $(seq 1 100); do
  if ! kill -0 "${serverd_pid}" 2>/dev/null; then
    cat "${tmp}/serverd.err" >&2
    echo "wire_smoke: serverd died before binding" >&2
    exit 1
  fi
  port="$(awk '/^listening/ {print $3}' "${tmp}/serverd.out" 2>/dev/null)"
  [ -n "${port}" ] && break
  sleep 0.1
done
if [ -z "${port}" ]; then
  echo "wire_smoke: serverd never reported its port" >&2
  exit 1
fi
echo "wire_smoke: serverd pid ${serverd_pid} on 127.0.0.1:${port}"

# --- streamed certificate == in-process bytes ------------------------------
awk 'BEGIN {
  n = 48; m = 0;
  for (i = 0; i + 1 < n; ++i) { eu[m] = i; ev[m] = i + 1; ++m; }
  for (i = 0; i + 2 < n; i += 3) { eu[m] = i; ev[m] = i + 2; ++m; }
  print n, m;
  for (i = 0; i < m; ++i) print eu[i], ev[i];
}' > "${tmp}/graph.txt"
if ! "${build}/wire_fetch" fetch 127.0.0.1 "${port}" "${tmp}/graph.txt" \
     connectivity "${tmp}/wire.cert"; then
  echo "wire_smoke: wire fetch failed" >&2
  exit 1
fi
if ! "${build}/wire_fetch" local "${tmp}/graph.txt" connectivity \
     "${tmp}/local.cert"; then
  echo "wire_smoke: local reference failed" >&2
  exit 1
fi
if ! cmp -s "${tmp}/wire.cert" "${tmp}/local.cert"; then
  echo "wire_smoke: streamed certificate differs from in-process bytes" >&2
  exit 1
fi
echo "wire_smoke: streamed certificate byte-identical to in-process result"

# --- SIGTERM graceful drain ------------------------------------------------
kill -TERM "${serverd_pid}"
drained=1
for _ in $(seq 1 100); do
  if ! kill -0 "${serverd_pid}" 2>/dev/null; then
    drained=0
    break
  fi
  sleep 0.1
done
if [ "${drained}" -ne 0 ]; then
  echo "wire_smoke: serverd did not drain within 10s of SIGTERM" >&2
  exit 1
fi
wait "${serverd_pid}"
rc=$?
serverd_pid=""
if [ "${rc}" -ne 0 ]; then
  cat "${tmp}/serverd.err" >&2
  echo "wire_smoke: serverd exited ${rc} after SIGTERM" >&2
  exit 1
fi
cat "${tmp}/serverd.err"
echo "wire_smoke: OK"
