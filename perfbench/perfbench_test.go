package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata from the current simulator")

// repoRoot is the repository root seen from this package's directory.
const repoRoot = ".."

func testEnv(t *testing.T, seed uint64, refs *references) *env {
	t.Helper()
	e, err := newEnv(repoRoot, seed, refs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustRefs(t *testing.T) *references {
	t.Helper()
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestReferences runs one rep of every workload against the references;
// with -update it first rewrites them from the current simulator
// (figures/cycles.json is kept: ByID exposes no cycle count).
func TestReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if *update {
		old := mustRefs(t)
		fresh := &references{figures: map[string][]byte{}, stream: map[string][]byte{}, figureCycles: old.figureCycles}
		for _, w := range workloads {
			e := testEnv(t, serveRefSeed, fresh)
			r := runRep(w, e, nil)
			if r.out.failed != 0 {
				t.Fatalf("%s: %v", w.name, r.out.errs)
			}
			for key, b := range r.out.outputs {
				switch {
				case w.name == "figures":
					fresh.figures[key] = b
				case w.name == "stream":
					fresh.stream[key] = b
				case key == "serve.report":
					fresh.serveReport = b
				case key == "serve.recording":
					fresh.serveRecSHA = string(b)
				}
			}
		}
		if err := writeReferences("testdata", fresh); err != nil {
			t.Fatal(err)
		}
		t.Log("references rewritten; rebuild to embed them")
		return
	}
	refs := mustRefs(t)
	for _, w := range workloads {
		e := testEnv(t, serveRefSeed, refs)
		if r := runRep(w, e, nil); r.out.failed != 0 || r.out.attempted != w.ops {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, r.out.failed, r.out.attempted, r.out.errs)
		}
	}
}

// TestPerturbedOutputFails flips one byte of a figure table and of a
// Stats JSON reference and checks that the op fails and is counted.
func TestPerturbedOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stream and figures workloads")
	}
	flip := func(b []byte) []byte {
		c := bytes.Clone(b)
		c[len(c)/2] ^= 1
		return c
	}
	refs := mustRefs(t)
	refs.stream["csb"] = flip(refs.stream["csb"])
	refs.figures["X8"] = flip(refs.figures["X8"])
	for _, tc := range []struct {
		workload string
		failed   int
	}{{"stream", 1}, {"figures", 1}} {
		w, _ := workloadByName(tc.workload)
		_, total := timed(w, testEnv(t, serveRefSeed, refs), 0, &bytes.Buffer{})
		reps := total.attempted / w.ops
		if total.failed != tc.failed*reps {
			t.Errorf("%s: %d of %d ops failed over %d reps, want %d per rep", tc.workload, total.failed, total.attempted, reps, tc.failed)
		}
	}
	if err := sameBytes("table", flip(refs.figures["3a"]), refs.figures["3a"]); err == nil {
		t.Error("a flipped byte passed the comparison")
	}
}

// TestMetricNames checks that every name a run can emit is well formed,
// unique and listed with the same unit in BENCHMARK.json, and that
// BENCHMARK.json lists nothing else.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile(repoRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, tc := range []struct {
		name   string
		defs   []metricDef
		listed []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		listed := map[string]string{}
		for _, l := range tc.listed {
			listed[l.Name] = l.Unit
		}
		seen := map[string]bool{}
		for _, d := range tc.defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s: bad name %q", tc.name, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s: %q emitted twice", tc.name, d.name)
			}
			seen[d.name] = true
			if u, ok := listed[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %q (%s) not listed in BENCHMARK.json (listed unit %q)", tc.name, d.name, d.unit, u)
			}
		}
		if len(listed) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", tc.name, len(listed), len(tc.defs))
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	// emit refuses a value without a definition.
	if _, err := emit(endToEnd, map[string]float64{"bogus": 1}); err == nil {
		t.Error("emit accepted an undefined metric")
	}
}

// TestRunOutput runs the stream workload untraced and traced end to end
// and checks the result line's shape and the emitted names.
func TestRunOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stream workload twice")
	}
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "stream", "--seed", "7", "--seconds", "0", "--trace", tc.trace, "--out", t.TempDir()}
		if code := run(args, repoRoot, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", tc.trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < minReps*len(streamHalves) {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d: %s", tc.trace, res.Correct, res.Attempted, res.Failed, errOut.String())
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or with unit %q", tc.trace, d.name, m.Unit)
			}
		}
		if tc.trace == "0" {
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}
		} else {
			sum := 0.0
			for _, l := range selfFracLayers {
				sum += res.Metrics[l+".self_frac"].Value
			}
			if res.Metrics["profile.samples"].Value > 0 && (sum < 0.999 || sum > 1.001) {
				t.Errorf("self_frac values sum to %v, want 1", sum)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "stream", "--trace", "2"},
		{"--workload", "stream", "extra"},
	} {
		var out bytes.Buffer
		if code := run(args, repoRoot, &out, &bytes.Buffer{}); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"csbsim/internal/cpu.(*CPU).issue":                                   "cpu",
		"csbsim/internal/cluster.(*Cluster).runWindowed.func1":               "cluster",
		"csbsim/internal/cluster/loadgen.(*Generator).hook":                  "loadgen",
		"csbsim/internal/cluster/ctrace.(*Tracer).PacketArrived":             "obs",
		"csbsim/internal/obs/rec.(*Recorder).Roll":                           "obs",
		"csbsim/internal/isa.Op.Class":                                       "isa",
		"csbsim/internal/fault.(*Injector).DropPacket":                       "other",
		"runtime.mallocgc":                                                   "runtime",
		"runtime/internal/syscall.Syscall6":                                  "runtime",
		"sync/atomic.(*Int64).Add":                                           "other",
		"main.(*streamInst).body":                                            "other",
		"csbsim/internal/bench.Sweep[go.shape.*csbsim/internal/sim.Machine]": "bench",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileShares decodes a real CPU profile and checks that every
// sample is attributed.
func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	x := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1e5; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = x
	byLayer, _, total, err := profileShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("no samples")
	}
	var sum int64
	for l, n := range byLayer {
		if !slices.Contains(selfFracLayers, l) {
			t.Errorf("unknown layer %q", l)
		}
		sum += n
	}
	if sum != total || byLayer["other"] == 0 {
		t.Errorf("layers %v sum to %d of %d samples; the spin loop should land in other", byLayer, sum, total)
	}
}
