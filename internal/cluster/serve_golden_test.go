package cluster_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/cluster/loadgen"
	"csbsim/internal/fault"
)

var update = flag.Bool("update", false, "rewrite golden files")

// serveGoldenRun builds a faulted 4-node star serving cluster — node 0
// runs the CSB loadgen server, which polls its NIC with uncached loads;
// nodes 1-3 are open-loop clients with timeouts and retries — runs it
// for a fixed horizon on one engine and returns every node's Stats, the
// loadgen accounting and the wire-fault accounting as JSON lines.
func serveGoldenRun(t *testing.T, parallel bool) []byte {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = cluster.TopoStar
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg, err := fault.ParseSpec("wiredrop=8,outage=2,outagemax=300,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachWireFaults(fcfg); err != nil {
		t.Fatal(err)
	}
	src, err := loadgen.ServerProgram(bench.SendCSB, 8)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.ServerMapIO(c.Node(0), bench.SendCSB)
	if _, err := c.Node(0).M.LoadSource("server.s", src); err != nil {
		t.Fatal(err)
	}
	var gens []*loadgen.Generator
	for i := 1; i < cfg.Nodes; i++ {
		if _, err := c.Node(i).M.LoadSource("client.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
		g := loadgen.New(loadgen.Config{
			MeanGap:    3030,
			Seed:       uint64(1 + i),
			Words:      8,
			Servers:    []int{0},
			Timeout:    6000,
			MaxRetries: 4,
		})
		if err := g.Attach(c, i); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	if err := c.RunFor(300_000, parallel); err != nil {
		t.Fatal(err)
	}

	var lines [][]byte
	add := func(v any) {
		t.Helper()
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, js)
	}
	for _, n := range c.Nodes() {
		add(map[string]any{"node": n.Name(), "stats": n.M.Stats()})
	}
	var lg []loadgen.Stats
	for _, g := range gens {
		lg = append(lg, g.Stats())
	}
	add(map[string]any{"loadgen": lg})
	fs := c.WireFaults().Stats()
	add(map[string]any{"wire_faults": fs})
	if fs.WireDrops == 0 || fs.OutageWindows == 0 {
		t.Errorf("wire faults never fired, the golden would not cover retries: %+v", fs)
	}
	out := append([]byte("[\n"), bytes.Join(lines, []byte(",\n"))...)
	return append(out, "\n]\n"...)
}

// TestServeTimingGolden pins the serving workload's timing: a faulted
// 4-node star whose server core spends most cycles polling a device
// register with retire-executed uncached loads. Every node's Stats JSON
// (cycles, CPI stack, every layer's counters), the loadgen accounting and
// the wire-fault accounting must match testdata/serve_timing.golden.json
// byte for byte on both the parallel engine and the sequential reference.
// TestPipelineTimingGolden has no device-polling guest; this is the check
// that a core scheduling change keeps polling timing exact.
// Refresh with: go test ./internal/cluster -run TestServeTimingGolden -update
func TestServeTimingGolden(t *testing.T) {
	par := serveGoldenRun(t, true)
	seq := serveGoldenRun(t, false)
	if !bytes.Equal(par, seq) {
		t.Fatalf("parallel and sequential-reference engines disagree:\n%s\n---- vs ----\n%s", par, seq)
	}
	golden := filepath.Join("testdata", "serve_timing.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, par, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(par, want) {
		return
	}
	wl := bytes.Split(want, []byte("\n"))
	for i, gl := range bytes.Split(par, []byte("\n")) {
		if i >= len(wl) || !bytes.Equal(gl, wl[i]) {
			t.Fatalf("serve timing drifted from %s (refresh with -update) at line %d:\ngot  %s", golden, i+1, gl)
		}
	}
	t.Fatalf("serve timing drifted from %s (refresh with -update): %d lines, want %d",
		golden, bytes.Count(par, []byte("\n")), len(wl)-1)
}
