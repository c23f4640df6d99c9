package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"csbsim/internal/bench"
)

// minReps is the fewest reps (of each kind, in a traced run) a run makes,
// however short --seconds is.
const minReps = 3

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: stream, figures or serve")
	fs.Uint64Var(&o.seed, "seed", serveRefSeed, "workload seed (only serve consumes it)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measure for this many seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/trace", "directory for the traced run's spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("--seconds must not be negative")
	}
	o.trace = trace == 1
	return o, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark invocation from the repository root and
// returns the exit code.
func run(args []string, root string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want stream, figures or serve)\n", o.workload)
		return 2
	}
	procs := min(runtime.NumCPU(), 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer bench.SetWorkers(bench.Workers())
	bench.SetWorkers(procs)

	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: references:", err)
		return 1
	}
	e, err := newEnv(root, o.seed, refs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host, err := json.Marshal(fingerprint(root, o, procs))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", host)

	var res result
	var defs []metricDef
	var values map[string]float64
	var total outcome
	if o.trace {
		defs = perLayer
		values, total, err = traced(w, e, o, stdout)
	} else {
		defs = endToEnd
		values, total = timed(w, e, o.seconds, stdout)
	}
	if err == nil {
		res.Metrics, err = emit(defs, values)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0 && total.attempted > 0
	for i, err := range total.errs {
		if i == 5 {
			fmt.Fprintf(stderr, "perfbench: ... and %d more failures\n", len(total.errs)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: FAILED:", err)
	}
	notes := map[string]bool{}
	for _, n := range total.notes {
		if !notes[n] {
			notes[n] = true
			fmt.Fprintln(stderr, "perfbench: note:", n)
		}
	}
	fmt.Fprintf(stdout, "%-24s %.6g ratio (%d of %d ops)\n", "failed_frac",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-24s %.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// rep is one measured set-up and body.
type rep struct {
	setup, wall float64    // seconds
	peakRSS     float64    // bytes, set-up and body
	host        hostSample // body deltas
	out         outcome
	spans       [2]int // this rep's span range in the run's spans (traced reps)
	profile     []byte
}

// runRep runs one rep: set-up, then the timed body. sp is nil for an
// untraced rep; a traced rep also takes a CPU profile.
func runRep(w *workload, e *env, sp *spans) (r rep) {
	runtime.GC()
	resetPeakRSS()
	defer func() { r.peakRSS = peakRSSBytes() }()
	var prof bytes.Buffer
	if sp != nil {
		r.spans[0] = len(sp.list)
		// Fails only when a profile is already running, which this
		// process never does; the rep then reports no samples.
		_ = pprof.StartCPUProfile(&prof)
		defer func() {
			pprof.StopCPUProfile()
			r.profile = prof.Bytes()
			r.spans[1] = len(sp.list)
		}()
		defer sp.start("rep", 0)()
	}
	endSetup := sp.start("setup", 0)
	t := nowSeconds()
	inst, err := w.setup(e, sp)
	r.setup = nowSeconds() - t
	endSetup()
	if err != nil {
		r.out = outcome{attempted: w.ops, failed: w.ops, errs: []error{fmt.Errorf("%s set-up: %w", w.name, err)}}
		return r
	}
	endBody := sp.start("body", 0)
	h0 := readHost()
	t = nowSeconds()
	r.out = inst.body(sp)
	r.wall = nowSeconds() - t
	h1 := readHost()
	endBody()
	r.host = hostSample{
		cpu:        h1.cpu - h0.cpu,
		allocBytes: h1.allocBytes - h0.allocBytes,
		mallocs:    h1.mallocs - h0.mallocs,
		gcCycles:   h1.gcCycles - h0.gcCycles,
		gcCPU:      h1.gcCPU - h0.gcCPU,
		totalCPU:   h1.totalCPU - h0.totalCPU,
	}
	return r
}

var clockStart = time.Now()

// nowSeconds reads the monotonic clock.
func nowSeconds() float64 { return time.Since(clockStart).Seconds() }

// timed makes untraced reps for the given seconds and reports the
// end-to-end metrics as medians over them.
func timed(w *workload, e *env, seconds float64, stdout io.Writer) (map[string]float64, outcome) {
	var reps []rep
	var total outcome
	for start := nowSeconds(); len(reps) < minReps || nowSeconds()-start < seconds; {
		r := runRep(w, e, nil)
		total.merge(r.out)
		reps = append(reps, r)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d reps\n", w.name, e.seed, len(reps))
	return map[string]float64{
		"wall_s":  medianOf(reps, func(r rep) float64 { return r.wall }),
		"setup_s": medianOf(reps, func(r rep) float64 { return r.setup }),
		"node_mhz": medianOf(reps, func(r rep) float64 {
			if r.wall == 0 {
				return 0
			}
			return float64(r.out.nodeCycles) / (r.wall * 1e6)
		}),
		"cpu_s":       medianOf(reps, func(r rep) float64 { return r.host.cpu.Seconds() }),
		"alloc_mb":    medianOf(reps, func(r rep) float64 { return float64(r.host.allocBytes) / 1e6 }),
		"peak_rss_mb": medianOf(reps, func(r rep) float64 { return r.peakRSS / 1e6 }),
	}, total
}

// medianOf returns the median of f over reps.
func medianOf(reps []rep, f func(r rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// traced alternates untraced and traced reps for the given seconds, runs
// the workload's comparison runs, writes the spans and profiles under
// o.out and reports the per-layer metrics.
func traced(w *workload, e *env, o options, stdout io.Writer) (map[string]float64, outcome, error) {
	sp := newSpans()
	var plain, tr []rep
	var total outcome
	for start := nowSeconds(); len(plain) < minReps || len(tr) < minReps || nowSeconds()-start < o.seconds; {
		if len(plain) <= len(tr) {
			plain = append(plain, runRep(w, e, nil))
			total.merge(plain[len(plain)-1].out)
		} else {
			tr = append(tr, runRep(w, e, sp))
			total.merge(tr[len(tr)-1].out)
		}
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d untraced and %d traced reps\n", w.name, e.seed, len(plain), len(tr))
	// spanSum is a traced rep's total time in the named spans, in seconds.
	spanSum := func(name string) float64 {
		return medianOf(tr, func(r rep) float64 { return sp.total(name, r.spans[0], r.spans[1]).Seconds() })
	}
	plainWall := medianOf(plain, func(r rep) float64 { return r.wall })
	v := map[string]float64{
		"asm.s":             spanSum("asm.Assemble"),
		"sim.build_s":       spanSum("MachineParams.Build") + spanSum("cluster.New"),
		"sim.warm_s":        spanSum("WarmProgram"),
		"runtime.gc_cycles": medianOf(plain, func(r rep) float64 { return float64(r.host.gcCycles) }),
		"runtime.mallocs":   medianOf(plain, func(r rep) float64 { return float64(r.host.mallocs) }),
		"runtime.gc_cpu_frac": medianOf(plain, func(r rep) float64 {
			if r.host.totalCPU <= 0 {
				return 0
			}
			return r.host.gcCPU / r.host.totalCPU
		}),
	}
	// Each traced rep runs right after an untraced one; pairing them
	// cancels slow drift of the host's speed.
	var pairs []float64
	for i, r := range tr {
		if plain[i].wall > 0 {
			pairs = append(pairs, r.wall/plain[i].wall-1)
		}
	}
	v["trace.overhead_frac"] = median(pairs)
	for _, id := range figureIDs {
		v["bench.figure_s."+id] = spanSum(figureSpanNames[id])
	}
	addCounts(v, tr[len(tr)-1].out, plainWall)
	if w.extras != nil {
		total.merge(w.extras(e, sp, v))
	}

	var profiles [][]byte
	for _, r := range tr {
		profiles = append(profiles, r.profile)
	}
	byLayer, sched, samples, err := profileShares(profiles)
	if err != nil {
		return nil, total, err
	}
	v["profile.samples"] = float64(samples)
	for _, l := range selfFracLayers {
		v[l+".self_frac"] = ratio(uint64(byLayer[l]), uint64(samples))
	}
	v["cluster.sched_frac"] = ratio(uint64(sched), uint64(samples))
	base := fmt.Sprintf("%s-seed%d", w.name, e.seed)
	if err := writeTrace(o.out, base, sp, profiles); err != nil {
		return nil, total, err
	}
	fmt.Fprintf(stdout, "spans and CPU profiles: %s\n", filepath.Join(o.out, base+".*"))
	return v, total, nil
}

// hostInfo is the fingerprint printed with every result: numbers from
// different hosts or builds are never to be compared.
type hostInfo struct {
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	SweepWorkers int     `json:"sweep_workers"`
	GoVersion    string  `json:"go_version"`
	OSArch       string  `json:"os_arch"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
}

func fingerprint(root string, o options, procs int) hostInfo {
	h := hostInfo{
		CPUModel:     "unknown",
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   procs,
		SweepWorkers: bench.Workers(),
		GoVersion:    runtime.Version(),
		OSArch:       runtime.GOOS + "/" + runtime.GOARCH,
		Commit:       "unknown",
		SourceSHA256: sourceDigest(root),
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// sourceDigest hashes the Go sources under root (paths and contents), so
// a build outside a git checkout is still identified.
func sourceDigest(root string) string {
	hash := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(hash, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		hash.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(hash.Sum(nil))
}
