#!/usr/bin/env sh
# Local / CI performance and correctness gates.
#
#   sh bench/check.sh
#
# Steps 1-2 must succeed before anything else runs.  Every later gate
# runs even when an earlier one fails: the script ends with one
# PASS/FAIL line per gate and exits non-zero iff any gate failed.
#
# Runs, in order:
#   1. dune build @fmt   (only when ocamlformat is installed — the
#                         format check is advisory on machines without it)
#   2. dune build        (whole tree, warnings-as-errors per dune-project)
#   3. dune runtest      (tier-1: unit + property-based suites, including
#                         the interned engine's equivalence with the
#                         test oracle's legacy rewriter)
#   4. bench/main.exe --quick --cache-only
#                        (replays recorded traces through the interned
#                         monitors and the oracle's legacy reference
#                         monitor, asserts outcome equivalence, writes
#                         BENCH_checker_cache.json, and FAILS if the
#                         interned engine is below the 1.5x speedup floor)
#   5. bench/main.exe --quick --obs-only
#                        (measures the cost of an enabled metrics
#                         registry on the densest checker configuration,
#                         writes BENCH_obs_overhead.json, and FAILS if
#                         metrics-enabled activation throughput drops
#                         more than 5% below metrics-disabled)
#   6. bench/main.exe --quick --campaign-only
#                        (times the same campaign job matrix on 1 and 4
#                         worker domains, asserts byte-identical report
#                         JSON, writes BENCH_campaign_scaling.json, and
#                         FAILS below the 2x speedup floor; on machines
#                         with fewer than 4 recommended domains the
#                         gate records a skip and exits 0)
#   7. bench/main.exe --quick --fault-only
#                        (measures the armed-but-idle cost of the fault
#                         subsystem -- a latent plan plus the
#                         qualification guard on the densest checker
#                         run -- writes BENCH_fault_overhead.json, and
#                         FAILS if the slowdown exceeds 2% or the
#                         latent plan perturbs the run)
#   8. bench/main.exe --quick --isolate-only
#                        (times the same crash-free job matrix on the
#                         in-domain and subprocess executors, asserts
#                         byte-identical report JSON across executors,
#                         writes BENCH_isolate_overhead.json, and
#                         FAILS if process isolation costs more than
#                         1.5x the in-domain pool)
#   9. bench/main.exe --quick --sched-only
#                        (times a scheduling-dense netlist under the
#                         classic and compiled kernel engines, asserts
#                         byte-identical metrics documents on the
#                         cache-bench workload, writes
#                         BENCH_sched_speedup.json, and FAILS if the
#                         compiled engine is below the 3x speedup
#                         floor)
#  10. bench/main.exe --quick --trace-only
#                        (records one des56-rtl run to a compact binary
#                         trace, times live check vs offline recheck on
#                         a 10-property invariant set, asserts the two
#                         verdict reports are byte-identical, writes
#                         BENCH_trace_recheck.json, and FAILS if the
#                         recheck is below the 5x speedup floor or the
#                         trace exceeds 20% of the equivalent VCD)
#  11. bench/main.exe --quick --serve-only
#                        (boots a tabv-serve daemon with a warm worker
#                         pool, drives it with 8 concurrent clients
#                         through cold, warm and mixed check/recheck
#                         rounds, asserts every socket response is
#                         byte-identical to the one-shot report, writes
#                         BENCH_serve_throughput.json, and FAILS below
#                         the 5 req/s throughput floor or the 2x
#                         warm-replay speedup gate)
#  12. bench/main.exe --quick --chaos-only
#                        (boots a tabv-serve daemon and soaks it with 8
#                         clients, each with a seeded wire-fault plan
#                         interposed -- torn frames, truncated and
#                         corrupted headers, slow-loris trickles,
#                         mid-frame resets, duplicated frames and
#                         handshake garbage -- plus journaled campaigns
#                         riding along; asserts every completed request
#                         stays byte-identical to the one-shot report,
#                         the daemon ends drained and leak-free (no
#                         inflight keys, journals, stale state files or
#                         fds), writes BENCH_serve_chaos.json, and
#                         FAILS if anything leaks or the armed-but-idle
#                         cost of the net-fault hook exceeds 2% and
#                         20 us absolute)
#  13. bench/main.exe --quick --durability-only
#                        (runs a journaled campaign under the Fault.Io
#                         observer to enumerate every durable write
#                         boundary, truncates the journal at each one
#                         -- simulated power cuts -- and resumes every
#                         crash image, asserting each resumed report is
#                         byte-identical to the uninterrupted run; also
#                         fills the disk mid-append (ENOSPC) expecting
#                         an honest storage error plus an identical
#                         faultless resume, sweeps for stale *.tmp
#                         debris, writes BENCH_io_durability.json, and
#                         FAILS on any mismatch, debris, or if the
#                         hookless IO seam costs more than 2% over a
#                         raw fsynced append loop)
set -u

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt || exit 1
else
  echo "== skipping format check (ocamlformat not installed)"
fi

echo "== dune build"
dune build || exit 1

failed=0
verdicts=""

# gate NAME CMD...: run one gate, record its verdict, carry on.
gate() {
  name=$1
  shift
  echo "== $name"
  if "$@"; then
    verdicts="${verdicts}PASS  $name
"
  else
    verdicts="${verdicts}FAIL  $name
"
    failed=1
  fi
}

bench() {
  dune exec bench/main.exe -- --quick "$@"
}

gate "dune runtest" dune runtest
gate "checker-cache bench gate (>= 1.5x)" bench --cache-only
gate "observability overhead gate (<= 5%)" bench --obs-only
gate "campaign scaling gate (>= 2x at 4 workers; skips below 4 domains)" \
  bench --campaign-only
gate "fault-subsystem overhead gate (<= 2% armed-but-idle)" bench --fault-only
gate "subprocess isolation overhead gate (<= 1.5x in-domain)" \
  bench --isolate-only
gate "compiled scheduler gate (>= 3x on the scheduling-dense netlist)" \
  bench --sched-only
gate "trace recheck gate (>= 5x, <= 20% of VCD)" bench --trace-only
gate "serve throughput gate (8 clients; floor >= 5 req/s, warm >= 2x, byte-identical)" \
  bench --serve-only
gate "chaos soak gate (8 faulted clients; drained, leak-free, byte-identical)" \
  bench --chaos-only
gate "durability gate (power-cut recovery soak; byte-identical resumes, <= 2% seam overhead)" \
  bench --durability-only

echo "== gate verdicts"
printf '%s' "$verdicts"
if [ "$failed" -ne 0 ]; then
  echo "== some gates failed"
  exit 1
fi
echo "== all checks passed"
