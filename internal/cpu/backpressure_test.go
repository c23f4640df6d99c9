package cpu

import (
	"strings"
	"testing"

	"csbsim/internal/bus"
	"csbsim/internal/cache"
	"csbsim/internal/core"
	"csbsim/internal/mem"
	"csbsim/internal/uncbuf"
)

// newTinyRig builds a rig with deliberately small structures so the
// backpressure paths (ROB full, LSQ full, branch-snapshot limit, fetch
// queue) are exercised constantly. Programs must still run correctly.
func newTinyRig(t *testing.T) *rig {
	t.Helper()
	ram := mem.NewMemory()
	rt := mem.NewRouter(ram)
	b, err := bus.New(bus.DefaultConfig(), rt)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	u, err := uncbuf.New(uncbuf.Config{Entries: 2, BlockSize: 0, MaxBurst: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	cfg.FetchQueue = 4
	cfg.LSQSize = 3
	cfg.MaxBranches = 2
	cfg.MemPorts = 1
	cfg.AGUs = 1
	c, err := New(cfg, h, u, s, ram)
	if err != nil {
		t.Fatal(err)
	}
	pt := mem.NewPageTable()
	c.SetPageTable(pt)
	return &rig{t: t, c: c, h: h, u: u, s: s, ram: ram, b: b, pt: pt, ratio: 6}
}

func TestTinyStructuresStillCorrect(t *testing.T) {
	r := newTinyRig(t)
	r.load(t, `
	clr %g1
	mov 50, %g2
	set 0x20000, %o1
loop:
	add %g1, %g2, %g1
	stx %g1, [%o1]
	ldx [%o1], %g3
	andcc %g2, 1, %g0
	bnz odd
	add %g4, 1, %g4
odd:
	subcc %g2, 1, %g2
	bnz loop
	halt
`)
	r.run(t, 1_000_000)
	st := r.c.State()
	if st.R[1] != 1275 {
		t.Errorf("sum = %d, want 1275", st.R[1])
	}
	if st.R[3] != 1275 {
		t.Errorf("loaded sum = %d", st.R[3])
	}
	if st.R[4] != 25 {
		t.Errorf("evens = %d, want 25", st.R[4])
	}
	if r.c.branchCount != 0 || r.c.memCount != 0 {
		t.Errorf("leaked counters: %d branches, %d mem", r.c.branchCount, r.c.memCount)
	}
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	r := newTinyRig(t)
	var src strings.Builder
	for i := 0; i < 100; i++ {
		src.WriteString("\tadd %g1, 1, %g1\n")
	}
	src.WriteString("\thalt\n")
	r.load(t, src.String())
	for i := 0; i < 1_000_000 && !r.c.Halted(); i++ {
		if len(r.c.rob) > r.c.cfg.ROBSize {
			t.Fatalf("ROB holds %d entries, cap %d", len(r.c.rob), r.c.cfg.ROBSize)
		}
		if len(r.c.fetchQ) > r.c.cfg.FetchQueue {
			t.Fatalf("fetch queue %d, cap %d", len(r.c.fetchQ), r.c.cfg.FetchQueue)
		}
		if r.c.memCount > r.c.cfg.LSQSize {
			t.Fatalf("LSQ %d, cap %d", r.c.memCount, r.c.cfg.LSQSize)
		}
		if r.c.branchCount > r.c.cfg.MaxBranches {
			t.Fatalf("branches in flight %d, cap %d", r.c.branchCount, r.c.cfg.MaxBranches)
		}
		r.tick()
	}
	if !r.c.Halted() {
		t.Fatal("did not halt")
	}
	if r.c.State().R[1] != 100 {
		t.Errorf("result = %d", r.c.State().R[1])
	}
}

func TestUncachedBufferBackpressureStallsRetire(t *testing.T) {
	r := newTinyRig(t) // 2-entry uncached buffer
	r.pt.MapRange(0x4000_0000, 0x4000_0000, mem.PageSize, mem.KindUncached, true)
	var src strings.Builder
	src.WriteString("\tset 0x40000000, %o1\n")
	for i := 0; i < 16; i++ {
		if i == 0 {
			src.WriteString("\tstx %g1, [%o1]\n")
		} else {
			src.WriteString("\tstx %g1, [%o1+" + itoa(i*8) + "]\n")
		}
	}
	src.WriteString("\tmembar\n\thalt\n")
	r.load(t, src.String())
	r.run(t, 1_000_000)
	if got := r.c.Stats().UncachedStores; got != 16 {
		t.Errorf("uncached stores = %d, want 16 (none lost to backpressure)", got)
	}
	if got := r.b.Stats().Writes; got != 16 {
		t.Errorf("bus writes = %d, want 16", got)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
