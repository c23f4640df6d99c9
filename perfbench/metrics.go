package main

import (
	"fmt"
	"math"
	"sort"

	"csbsim/internal/cluster/loadgen"
	"csbsim/internal/obs"
	"csbsim/internal/sim"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in output order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"node_mhz", "MHz"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// selfFracLayers are the profile attribution buckets; their self_frac
// values sum to 1.
var selfFracLayers = []string{
	"cpu", "uncbuf", "core", "cache", "bus", "mem", "device", "cluster",
	"loadgen", "obs", "isa", "sim", "asm", "bench", "runtime", "other",
}

// cpiBuckets are the CPI-stack causes reported as cpu.cpi.<bucket>.
var cpiBuckets = []obs.StallCause{
	obs.CauseExec, obs.CauseUncached, obs.CauseCSB, obs.CauseBusArb,
	obs.CauseLSQ, obs.CauseHalted,
}

// perLayer lists the metrics of a traced run, in output order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"asm.s", "s"}, {"asm.insts", "count"},
		{"sim.build_s", "s"}, {"sim.warm_s", "s"}, {"sim.ns_per_cycle", "ns"},
		{"cpu.ns_per_inst", "ns"}, {"cpu.retired", "count"}, {"cpu.ipc", "ratio"},
		{"cpu.squashed", "count"},
	}
	for _, c := range cpiBuckets {
		defs = append(defs, metricDef{"cpu.cpi." + c.String(), "cpi"})
	}
	defs = append(defs,
		metricDef{"uncbuf.coalesce_ratio", "ratio"}, metricDef{"uncbuf.transactions", "count"},
		metricDef{"uncbuf.stall_full", "count"},
		metricDef{"core.flush_ok_ratio", "ratio"}, metricDef{"core.bursts", "count"},
		metricDef{"core.stall_busy", "count"},
		metricDef{"cache.l1d_miss_ratio", "ratio"}, metricDef{"cache.l2_miss_ratio", "ratio"},
		metricDef{"bus.util", "ratio"}, metricDef{"bus.transactions", "count"}, metricDef{"bus.nacks", "count"},
		metricDef{"mem.tlb_miss_ratio", "ratio"},
		metricDef{"device.tx_packets", "count"}, metricDef{"device.rx_packets", "count"},
		metricDef{"cluster.sched_frac", "ratio"}, metricDef{"cluster.chunk_ms.p50", "ms"},
		metricDef{"cluster.chunk_ms.p99", "ms"}, metricDef{"cluster.par_speedup", "ratio"},
		metricDef{"cluster.packets", "count"}, metricDef{"cluster.drops", "count"},
		metricDef{"loadgen.issued", "count"}, metricDef{"loadgen.goodput_ratio", "ratio"},
		metricDef{"loadgen.retries", "count"}, metricDef{"loadgen.timeouts", "count"},
		metricDef{"obs.rec_windows", "count"}, metricDef{"obs.rec_bytes", "bytes"},
		metricDef{"obs.spans", "count"}, metricDef{"obs.overhead_frac", "ratio"},
	)
	for _, id := range figureIDs {
		defs = append(defs, metricDef{"bench.figure_s." + id, "s"})
	}
	defs = append(defs,
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.mallocs", "count"},
		metricDef{"trace.overhead_frac", "ratio"}, metricDef{"profile.samples", "count"},
	)
	for _, l := range selfFracLayers {
		defs = append(defs, metricDef{l + ".self_frac", "ratio"})
	}
	return defs
}()

// emit renders values in defs order. Every def gets a value (0 when the
// workload does not exercise it); a value without a def is a bug.
func emit(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s has no definition", name)
		}
	}
	return out, nil
}

// metric is one entry of the result's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerCounts are the simulated statistics one rep exposes through the
// public accessors.
type layerCounts struct {
	asmWords uint64
	machines []sim.Stats
	// serve only
	txPackets, rxPackets uint64
	wirePackets, drops   uint64
	spansDone            uint64
	load                 loadgen.Stats
	recWindows, recBytes uint64
}

// addCounts fills the count- and ratio-valued per-layer metrics from one
// rep's outcome; bodySeconds is the median untraced body time.
func addCounts(v map[string]float64, o outcome, bodySeconds float64) {
	lc := o.counts
	var s sim.Stats
	var cpi obs.CPIStack
	for _, m := range lc.machines {
		s.CPU.Cycles += m.CPU.Cycles
		s.CPU.Retired += m.CPU.Retired
		s.CPU.Squashed += m.CPU.Squashed
		for i := range cpi {
			cpi[i] += m.CPU.CPI[i]
		}
		s.UB.Stores += m.UB.Stores
		s.UB.Coalesced += m.UB.Coalesced
		s.UB.Transactions += m.UB.Transactions
		s.UB.StallFull += m.UB.StallFull
		s.CSB.FlushOK += m.CSB.FlushOK
		s.CSB.FlushFail += m.CSB.FlushFail
		s.CSB.Bursts += m.CSB.Bursts
		s.CSB.StallBusy += m.CSB.StallBusy
		s.Caches.L1D.Hits += m.Caches.L1D.Hits
		s.Caches.L1D.Misses += m.Caches.L1D.Misses
		s.Caches.L2.Hits += m.Caches.L2.Hits
		s.Caches.L2.Misses += m.Caches.L2.Misses
		s.Bus.Cycles += m.Bus.Cycles
		s.Bus.BusyCycles += m.Bus.BusyCycles
		s.Bus.Transactions += m.Bus.Transactions
		s.Bus.Nacks += m.Bus.Nacks
		s.TLBHits += m.TLBHits
		s.TLBMisses += m.TLBMisses
	}
	v["asm.insts"] = float64(lc.asmWords)
	if o.nodeCycles > 0 {
		v["sim.ns_per_cycle"] = bodySeconds * 1e9 / float64(o.nodeCycles)
	}
	if s.CPU.Retired > 0 {
		v["cpu.ns_per_inst"] = bodySeconds * 1e9 / float64(s.CPU.Retired)
	}
	v["cpu.retired"] = float64(s.CPU.Retired)
	v["cpu.ipc"] = ratio(s.CPU.Retired, s.CPU.Cycles)
	v["cpu.squashed"] = float64(s.CPU.Squashed)
	for _, c := range cpiBuckets {
		v["cpu.cpi."+c.String()] = ratio(cpi[c], s.CPU.Retired)
	}
	v["uncbuf.coalesce_ratio"] = ratio(s.UB.Coalesced, s.UB.Stores)
	v["uncbuf.transactions"] = float64(s.UB.Transactions)
	v["uncbuf.stall_full"] = float64(s.UB.StallFull)
	v["core.flush_ok_ratio"] = ratio(s.CSB.FlushOK, s.CSB.FlushOK+s.CSB.FlushFail)
	v["core.bursts"] = float64(s.CSB.Bursts)
	v["core.stall_busy"] = float64(s.CSB.StallBusy)
	v["cache.l1d_miss_ratio"] = ratio(s.Caches.L1D.Misses, s.Caches.L1D.Hits+s.Caches.L1D.Misses)
	v["cache.l2_miss_ratio"] = ratio(s.Caches.L2.Misses, s.Caches.L2.Hits+s.Caches.L2.Misses)
	v["bus.util"] = ratio(s.Bus.BusyCycles, s.Bus.Cycles)
	v["bus.transactions"] = float64(s.Bus.Transactions)
	v["bus.nacks"] = float64(s.Bus.Nacks)
	v["mem.tlb_miss_ratio"] = ratio(s.TLBMisses, s.TLBHits+s.TLBMisses)
	v["device.tx_packets"] = float64(lc.txPackets)
	v["device.rx_packets"] = float64(lc.rxPackets)
	v["cluster.packets"] = float64(lc.wirePackets)
	v["cluster.drops"] = float64(lc.drops)
	v["loadgen.issued"] = float64(lc.load.Issued)
	v["loadgen.goodput_ratio"] = ratio(lc.load.Goodput, lc.load.Issued)
	v["loadgen.retries"] = float64(lc.load.Retries)
	v["loadgen.timeouts"] = float64(lc.load.Timeouts)
	v["obs.rec_windows"] = float64(lc.recWindows)
	v["obs.rec_bytes"] = float64(lc.recBytes)
	v["obs.spans"] = float64(lc.spansDone)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// median returns the median of xs (0 for none). xs is reordered.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs (0 for none). xs is
// reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if q == 0.5 && len(xs)%2 == 0 {
		return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}
