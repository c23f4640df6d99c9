package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/mem"
)

// TestPipelineTimingGolden pins the out-of-order core's timing: the full
// Stats JSON (cycles, CPI stack, every layer's counters) of the
// difftest's random programs and the example programs must match
// testdata/timing.golden.json byte for byte. The difftest compares only
// architectural state, so this is the check that catches a scheduling
// change that keeps results right but moves a cycle.
// Refresh with: go test ./internal/sim -run TestPipelineTimingGolden -update
func TestPipelineTimingGolden(t *testing.T) {
	var lines [][]byte
	record := func(name string, m *Machine) {
		t.Helper()
		m.AttachCounters()
		if err := m.Run(20_000_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(struct {
			Name  string
			Stats Stats
		}{name, m.Stats()})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, js)
	}
	diffRun := func(seed int64, warm bool) {
		prog, err := asm.Assemble(fmt.Sprintf("seed%d.s", seed), generate(seed))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed%d-cold", seed)
		if warm {
			name = fmt.Sprintf("seed%d-warm", seed)
		}
		record(name, newDiffMachine(t, prog, warm))
	}
	for seed := int64(0); seed < 60; seed++ {
		diffRun(seed, true)
	}
	for seed := int64(100); seed < 110; seed++ {
		diffRun(seed, false)
	}

	// The examples run as their headers say: cold, with the one I/O
	// range their "Run with:" line maps.
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "asm", "*.s"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs (%v)", err)
	}
	flagRE := regexp.MustCompile(`csbsim -(combining|uncached) (0x[0-9a-fA-F]+):64K`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sm := flagRE.FindSubmatch(src)
		if sm == nil {
			t.Fatalf("%s: no csbsim -combining/-uncached line in the header", f)
		}
		var base uint64
		fmt.Sscanf(string(sm[2]), "0x%x", &base)
		kind := mem.KindUncached
		if string(sm[1]) == "combining" {
			kind = mem.KindCombining
		}
		m, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.LoadSource(filepath.Base(f), string(src)); err != nil {
			t.Fatal(err)
		}
		m.MapRange(base, 64<<10, kind)
		record(filepath.Base(f), m)
	}

	got := append([]byte("[\n"), bytes.Join(lines, []byte(",\n"))...)
	got = append(got, "\n]\n"...)
	golden := filepath.Join("testdata", "timing.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wl := bytes.Split(want, []byte("\n"))
	for i, gl := range bytes.Split(got, []byte("\n")) {
		if i >= len(wl) || !bytes.Equal(gl, wl[i]) {
			t.Fatalf("timing drifted from %s (refresh with -update) at line %d:\ngot  %s", golden, i+1, gl)
		}
	}
	t.Fatalf("timing drifted from %s (refresh with -update): %d lines, want %d",
		golden, bytes.Count(got, []byte("\n")), len(wl)-1)
}
