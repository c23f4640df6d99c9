//go:build !race

// Excluded under the race detector: its instrumentation allocates, which
// would make the AllocsPerRun assertion meaningless.

package sim

import (
	"testing"

	"csbsim/internal/mem"
)

// ioWindow is the 1 MB uncached window the paper's sweeps map into every
// machine they build.
const ioWindow = 0x4000_0000

func newMachine(tb testing.TB) {
	m, err := New(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	m.MapRange(ioWindow, 1<<20, mem.KindUncached)
}

// Figure sweeps build thousands of short-lived machines, so construction
// must cost O(touched state): flat tag arrays, page-table leaves and a
// small decode cache, not one allocation per cache set or page.
func TestNewMachineAllocBudget(t *testing.T) {
	const budget = 64
	if avg := testing.AllocsPerRun(20, func() { newMachine(t) }); avg > budget {
		t.Errorf("New + 1 MB MapRange allocated %.0f times, budget %d", avg, budget)
	}
}

func BenchmarkNewMachine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newMachine(b)
	}
}
