package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// span is one timed call into a simulator layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the root
	Op     int    `json:"op"`     // the op the call served; 0 for rep-level spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// spans records spans in memory. A nil *spans records nothing, so the
// untraced path runs the same code with tracing off.
type spans struct {
	t0   time.Time
	list []span
	cur  int // innermost open span, -1 when none
	ops  int
}

func newSpans() *spans { return &spans{t0: time.Now(), cur: -1} }

func noop() {}

// start opens a span under the innermost open one and returns its closer.
func (s *spans) start(name string, op int) func() {
	if s == nil {
		return noop
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: s.cur, Op: op, Name: name, Start: int64(time.Since(s.t0))})
	s.cur = id
	return func() {
		s.list[id].End = int64(time.Since(s.t0))
		s.cur = s.list[id].Parent
	}
}

// op allocates the id shared by all spans of one op.
func (s *spans) op() int {
	if s == nil {
		return 0
	}
	s.ops++
	return s.ops
}

// total sums the durations of the spans named name in s.list[from:to].
func (s *spans) total(name string, from, to int) time.Duration {
	var d int64
	for _, sp := range s.list[from:to] {
		if sp.Name == name {
			d += sp.End - sp.Start
		}
	}
	return time.Duration(d)
}

// writeTrace writes the spans and the traced reps' CPU profiles under dir.
func writeTrace(dir, base string, sp *spans, profiles [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(sp.list)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".spans.json"), data, 0o644); err != nil {
		return err
	}
	for i, p := range profiles {
		name := fmt.Sprintf("%s.rep%d.cpu.pprof", base, i)
		if err := os.WriteFile(filepath.Join(dir, name), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// hostSample is a reading of the process's host-resource counters.
type hostSample struct {
	cpu        time.Duration // user+sys
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint64
	gcCPU      float64 // seconds, runtime estimate
	totalCPU   float64 // seconds, runtime estimate
}

var rtMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		rs[i].Name = n
	}
	metrics.Read(rs)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return hostSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   uint64(ms.NumGC),
		gcCPU:      rs[0].Value.Float64(),
		totalCPU:   rs[1].Value.Float64(),
	}
}

// resetPeakRSS sets the process's resident-set high-water mark (VmHWM)
// back to its current resident set, so that each rep reads its own peak.
// Linux offers this through the process's own /proc entry; elsewhere the
// peak stays the process lifetime's.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.WriteString("5") // a failed reset leaves the lifetime peak, still a valid bound
	f.Close()
}

// peakRSSBytes returns the resident-set high-water mark since the last
// resetPeakRSS, or the process lifetime's where that cannot be read.
func peakRSSBytes() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024                // Linux reports KiB
}
