// Command perfbench is the simulator's speed benchmark. It measures how
// fast the host runs the simulator, not what the simulated machine does:
// every simulated statistic it touches is deterministic and serves as an
// output check, never as a metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload stream|figures|serve --seed N --seconds S --trace 0|1
//
// A run repeats set-up and timed body ("reps") until --seconds have passed
// and reports medians over its reps. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Earlier
// lines give the host fingerprint, the per-rep counts and a readable
// table that includes failed_frac (failed ops ÷ attempted ops).
//
// # Workloads
//
// All load comes from this one process. GOMAXPROCS and the figure-sweep
// workers are pinned to min(nproc, 2).
//
//   - stream: the paper's store-bandwidth kernel (bench.StoreBandwidthProgram)
//     on a warmed machine, once through the uncached buffer and once
//     through the CSB, each for a fixed simulated-cycle budget inside which
//     the program never halts. Chosen because it is the per-cycle core,
//     uncached-buffer, CSB and bus path the paper is about, with nothing
//     else running. It bypasses the cluster, loadgen and observability, and
//     has almost no set-up.
//   - figures: every figure ID (3a–5b, X1–X8; 22 in all) through
//     bench.ByID, each table compared byte for byte with the csbfig table
//     EXPERIMENTS.md quotes. Chosen because it is the paper-reproduction
//     path: thousands of short machines, so construction and GC dominate,
//     not the steady hot loop. X8 is the only user of the lockstep
//     cluster loop.
//   - serve: the `make flight-recorder` serving scenario with a longer
//     horizon on the parallel windowed engine: a 4-node star, one CSB-reply
//     server, three open-loop clients at 0.33 req/kcycle (below the
//     server's ~2 req/kcycle capacity, so the simulated queue stays
//     bounded), wire faults, timeout 6000 with 4 retries, ctrace and the
//     flight recorder checking specs/serving.slo. Chosen because the
//     cluster engine and fabric, the NIC, loadgen retries and all
//     observability work here and nowhere else, and the core runs a poll
//     loop that mostly stalls on uncached loads — the opposite use of the
//     CPU model from stream. Only serve consumes --seed: client i draws
//     from seed+i and the wire faults from seed. stream and figures have
//     fixed inputs defined by the paper.
//
// An op is one machine run (stream), one figure (figures) or one serving
// run (serve). An op fails when it returns an error or its output check
// fails; a failed op is counted, never skipped.
//
// # End-to-end metrics (--trace 0)
//
//	wall_s       s    host wall time of the timed body: one pass over all
//	                  figures, or the fixed budget (stream) or horizon (serve)
//	node_mhz     MHz  simulated node-cycles ÷ host µs over the timed body
//	setup_s      s    building machines and clusters, assembling, loading
//	                  and warming guests, attaching observability
//	cpu_s        s    process user+sys CPU time over the timed body
//	alloc_mb     MB   host bytes (10^6) allocated during the timed body
//	peak_rss_mb  MB   resident-set high-water mark of one rep (set-up and
//	                  body; the kernel's mark is reset before each rep)
//
// figures builds its machines inside bench.ByID, which reports no cycle
// count, so its node-cycles come from figureCycles: the simulated
// node-cycles each figure takes. Like the tables, they are simulated
// statistics and only change when the tables do. Its set-up is one
// checked warm-up regeneration of figure 5a, which brings the heap and the
// sweep workers to a steady state before the timed pass.
//
// # Per-layer metrics (--trace 1)
//
// A traced run alternates untraced reps with traced reps. Traced reps
// record spans (name, start, end, parent, op id) around every public call
// the benchmark makes and a CPU profile; both are written under --out at
// the end. Nothing inside the simulator is instrumented. trace.overhead_frac
// is the median, over pairs of an untraced rep and the traced rep run
// right after it, of the traced wall time over the untraced, minus one.
//
// *.self_frac is a layer's share of the profile's samples, attributed by
// the Go package of the leaf frame; the self_frac values sum to 1. *_s
// values are span sums per rep. Counts come from the public Stats
// accessors and are per rep (they are deterministic). figures makes its
// asm and sim calls inside bench.ByID, which exposes no machine
// statistics, so there asm.*, sim.build_s, sim.warm_s and the counts read
// 0; its layers show in the self_frac values and bench.figure_s.<ID>.
//
// Which end-to-end metric each layer should move, and on which workload:
//
//	layer    metrics                                            moves              on
//	asm      asm.s, asm.insts                                   setup_s            all; most on figures
//	sim      sim.build_s, sim.warm_s, sim.ns_per_cycle          setup_s, wall_s    figures, stream
//	cpu      cpu.self_frac, ns_per_inst, retired, ipc,          node_mhz           stream (most), serve;
//	         squashed, cpu.cpi.<bucket>                                            little on figures
//	uncbuf   uncbuf.self_frac, coalesce_ratio, transactions,    node_mhz           stream uncached half
//	         stall_full
//	core     core.self_frac, flush_ok_ratio, bursts, stall_busy node_mhz           stream CSB half, serve
//	cache    cache.self_frac, l1d_miss_ratio, l2_miss_ratio     node_mhz           serve, figures
//	bus      bus.self_frac, util, transactions, nacks           node_mhz           stream
//	mem      mem.self_frac, tlb_miss_ratio                      node_mhz           stream
//	device   device.self_frac, tx_packets, rx_packets           node_mhz           serve
//	cluster  cluster.self_frac, sched_frac, chunk_ms.p50/.p99,  node_mhz, cpu_s    serve; figures via X8
//	         par_speedup, packets, drops
//	loadgen  loadgen.self_frac, issued, goodput_ratio,          node_mhz           serve only
//	         retries, timeouts
//	obs      obs.self_frac, rec_windows, rec_bytes, spans,      node_mhz           serve only
//	         overhead_frac
//	bench    bench.figure_s.<ID>                                wall_s             figures only
//	runtime  runtime.gc_cycles, gc_cpu_frac, mallocs            wall_s, alloc_mb   figures (most); ~0 on stream
//
// isa, sim, asm, bench, runtime and other (standard library, fault model,
// this benchmark) also get a self_frac so that the shares cover the whole
// profile.
//
// serve's traced run then makes three rounds of the same input: attached
// on the parallel engine as in the reps; observability detached, run in
// recording-window chunks (obs.overhead_frac = attached over detached
// minus one, and cluster.chunk_ms; its loadgen accounting must equal the
// attached run's); and on the sequential windowed engine
// (cluster.par_speedup = sequential over parallel; its outputs must equal
// the parallel engine's). The ratios are medians over the rounds.
package main
