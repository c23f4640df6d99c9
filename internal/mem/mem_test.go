package mem

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	m.Write(0x1000, data)
	got := make([]byte, len(data))
	m.Read(0x1000, got)
	if !bytes.Equal(got, data) {
		t.Errorf("got % x, want % x", got, data)
	}
}

func TestMemoryCrossesPageBoundary(t *testing.T) {
	m := NewMemory()
	addr := uint64(PageSize - 3)
	data := []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	m.Write(addr, data)
	got := make([]byte, len(data))
	m.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Errorf("cross-page: got % x, want % x", got, data)
	}
	if m.PagesTouched() != 2 {
		t.Errorf("pages touched = %d, want 2", m.PagesTouched())
	}
}

func TestMemoryZeroFilled(t *testing.T) {
	m := NewMemory()
	got := make([]byte, 16)
	m.Read(0x123456, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh memory not zero")
		}
	}
}

func TestMemoryUintHelpers(t *testing.T) {
	m := NewMemory()
	m.WriteUint(0x2000, 8, 0x1122334455667788)
	if got := m.ReadUint(0x2000, 8); got != 0x1122334455667788 {
		t.Errorf("ReadUint8 = %#x", got)
	}
	if got := m.ReadUint(0x2000, 4); got != 0x55667788 {
		t.Errorf("ReadUint4 = %#x", got)
	}
	if got := m.ReadUint(0x2000, 1); got != 0x88 {
		t.Errorf("ReadUint1 = %#x", got)
	}
	m.WriteUint(0x3000, 2, 0xbeef)
	if got := m.ReadUint(0x3000, 2); got != 0xbeef {
		t.Errorf("ReadUint2 = %#x", got)
	}
}

// TestMemoryQuick: writing then reading arbitrary spans round-trips.
func TestMemoryQuick(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		m.Write(uint64(addr), data)
		got := make([]byte, len(data))
		m.Read(uint64(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPageTableMapLookup(t *testing.T) {
	pt := NewPageTable()
	pt.Map(0x10000, 0x40000, KindCached, true)
	pte, ok := pt.Lookup(0x10ab4)
	if !ok {
		t.Fatal("lookup missed")
	}
	if pte.PFN != 0x40000>>PageBits || pte.Kind != KindCached || !pte.Writable {
		t.Errorf("pte = %+v", pte)
	}
	if _, ok := pt.Lookup(0x20000); ok {
		t.Error("unmapped page should miss")
	}
	pt.Unmap(0x10000)
	if _, ok := pt.Lookup(0x10000); ok {
		t.Error("unmapped page still present")
	}
}

func TestPageTableMapRange(t *testing.T) {
	pt := NewPageTable()
	pt.MapRange(0x10000, 0x80000, 3*PageSize+1, KindUncached, true)
	if pt.Len() != 4 {
		t.Fatalf("mapped %d pages, want 4", pt.Len())
	}
	for i := uint64(0); i < 4; i++ {
		pte, ok := pt.Lookup(0x10000 + i*PageSize)
		if !ok {
			t.Fatalf("page %d missing", i)
		}
		if want := (0x80000 >> PageBits) + i; pte.PFN != want {
			t.Errorf("page %d PFN = %#x, want %#x", i, pte.PFN, want)
		}
		if pte.Kind != KindUncached {
			t.Errorf("page %d kind = %v", i, pte.Kind)
		}
	}
}

// The zero value is an empty table: Map, Lookup, Unmap and Len all work
// without NewPageTable.
func TestPageTableZeroValue(t *testing.T) {
	var pt PageTable
	if _, ok := pt.Lookup(0x1000); ok {
		t.Fatal("empty table hit")
	}
	pt.Unmap(0x1000)
	if pt.Len() != 0 {
		t.Fatalf("empty Len = %d", pt.Len())
	}
	pt.Map(0x1000, 0x1000, KindCached, true)
	if pte, ok := pt.Lookup(0x1fff); !ok || pte.PFN != 1 {
		t.Fatalf("lookup = %+v, %v", pte, ok)
	}
	if pt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pt.Len())
	}
	pt.Unmap(0x1000)
	if _, ok := pt.Lookup(0x1000); ok || pt.Len() != 0 {
		t.Fatalf("after unmap: hit=%v Len=%d", ok, pt.Len())
	}
}

// A range that straddles a 2 MB leaf boundary maps every page on both
// sides, contiguously.
func TestPageTableMapRangeAcrossLeaves(t *testing.T) {
	const leaf = 2 << 20
	var pt PageTable
	va := uint64(3*leaf - 2*PageSize)
	pt.MapRange(va, 0x100000, 5*PageSize, KindCombining, false)
	if pt.Len() != 5 {
		t.Fatalf("Len = %d, want 5", pt.Len())
	}
	for i := uint64(0); i < 5; i++ {
		pte, ok := pt.Lookup(va + i*PageSize)
		if !ok || pte.PFN != 0x100000>>PageBits+i || pte.Kind != KindCombining || pte.Writable {
			t.Errorf("page %d: %+v, %v", i, pte, ok)
		}
	}
	for _, a := range []uint64{va - PageSize, va + 5*PageSize} {
		if _, ok := pt.Lookup(a); ok {
			t.Errorf("%#x outside the range mapped", a)
		}
	}
}

// An empty range maps nothing, even at address 0, where the last-page
// computation would otherwise wrap to the top of the address space; a
// range running past the top maps the pages up to it and no others.
func TestPageTableMapRangeEmptyAndWrap(t *testing.T) {
	var pt PageTable
	pt.MapRange(0, 0, 0, KindUncached, true)
	pt.MapRange(0x5000, 0x5000, 0, KindUncached, true)
	if pt.Len() != 0 {
		t.Fatalf("empty ranges mapped %d pages", pt.Len())
	}
	top := uint64(math.MaxUint64) &^ (PageSize - 1) // the last page
	va := top - PageSize
	pt.MapRange(va, 0x100000, 4*PageSize, KindCached, true)
	if pt.Len() != 2 {
		t.Fatalf("wrapping range mapped %d pages, want the 2 below the top", pt.Len())
	}
	for i, a := range []uint64{va, top} {
		pte, ok := pt.Lookup(a)
		if !ok || pte.PFN != 0x100000>>PageBits+uint64(i) {
			t.Errorf("page %#x: %+v, %v", a, pte, ok)
		}
	}
	if _, ok := pt.Lookup(0); ok {
		t.Error("wrapping range mapped page 0")
	}
}

// Remapping a mapped page replaces its entry without counting it twice;
// unmapping a page that is not mapped changes nothing.
func TestPageTableRemapAndUnmapCounts(t *testing.T) {
	pt := NewPageTable()
	pt.MapRange(0x40000000, 0x40000000, 1<<20, KindUncached, true)
	if pt.Len() != 256 {
		t.Fatalf("Len = %d, want 256", pt.Len())
	}
	pt.MapRange(0x40000000, 0x40000000, 1<<20, KindCombining, true)
	pt.Map(0x40000000, 0x9000, KindCached, false)
	if pt.Len() != 256 {
		t.Fatalf("after remap Len = %d, want 256", pt.Len())
	}
	if pte, _ := pt.Lookup(0x40000000); pte.PFN != 9 || pte.Kind != KindCached {
		t.Errorf("remapped page = %+v", pte)
	}
	if pte, _ := pt.Lookup(0x40001000); pte.Kind != KindCombining {
		t.Errorf("second page kind = %v", pte.Kind)
	}
	pt.Unmap(0x40100000) // same leaf, never mapped
	pt.Unmap(0x80000000) // no leaf
	if pt.Len() != 256 {
		t.Fatalf("after no-op unmaps Len = %d, want 256", pt.Len())
	}
	pt.Unmap(0x40000000)
	pt.Unmap(0x40000000)
	if pt.Len() != 255 {
		t.Fatalf("after double unmap Len = %d, want 255", pt.Len())
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	pte := PTE{PFN: 7, Kind: KindCombining, Writable: true, Valid: true}
	if _, ok := tlb.Lookup(0x7000, 1); ok {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(0x7000, 1, pte)
	got, ok := tlb.Lookup(0x7abc, 1)
	if !ok || got != pte {
		t.Fatalf("hit failed: %+v ok=%v", got, ok)
	}
	// Different ASID must miss.
	if _, ok := tlb.Lookup(0x7000, 2); ok {
		t.Error("ASID mismatch should miss")
	}
	if tlb.Hits != 1 || tlb.Misses != 2 {
		t.Errorf("stats hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	tlb := NewTLB(2)
	p := func(pfn uint64) PTE { return PTE{PFN: pfn, Valid: true} }
	tlb.Insert(0x1000, 0, p(1))
	tlb.Insert(0x2000, 0, p(2))
	tlb.Lookup(0x1000, 0) // touch 0x1000 so 0x2000 is LRU
	tlb.Insert(0x3000, 0, p(3))
	if _, ok := tlb.Lookup(0x2000, 0); ok {
		t.Error("LRU entry 0x2000 should have been evicted")
	}
	if _, ok := tlb.Lookup(0x1000, 0); !ok {
		t.Error("recently used entry 0x1000 evicted")
	}
	if _, ok := tlb.Lookup(0x3000, 0); !ok {
		t.Error("new entry 0x3000 missing")
	}
}

func TestTLBInsertUpdatesExisting(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(0x1000, 0, PTE{PFN: 1, Valid: true})
	tlb.Insert(0x1000, 0, PTE{PFN: 2, Valid: true})
	got, ok := tlb.Lookup(0x1000, 0)
	if !ok || got.PFN != 2 {
		t.Errorf("update failed: %+v", got)
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(0x1000, 1, PTE{PFN: 1, Valid: true})
	tlb.Insert(0x2000, 2, PTE{PFN: 2, Valid: true})
	tlb.FlushASID(1)
	if _, ok := tlb.Lookup(0x1000, 1); ok {
		t.Error("ASID 1 entry survived FlushASID")
	}
	if _, ok := tlb.Lookup(0x2000, 2); !ok {
		t.Error("ASID 2 entry wrongly flushed")
	}
	tlb.FlushAll()
	if _, ok := tlb.Lookup(0x2000, 2); ok {
		t.Error("entry survived FlushAll")
	}
}

type fakeTarget struct {
	lastWrite []byte
	lastAddr  uint64
}

func (f *fakeTarget) ReadTarget(pa uint64, size int) []byte {
	return make([]byte, size)
}
func (f *fakeTarget) WriteTarget(pa uint64, data []byte) {
	f.lastAddr = pa
	f.lastWrite = append([]byte(nil), data...)
}

func TestRouterDeviceDispatch(t *testing.T) {
	ram := NewMemory()
	rt := NewRouter(ram)
	dev := &fakeTarget{}
	if err := rt.Register(0x4000_0000, 0x1000, "nic", dev); err != nil {
		t.Fatal(err)
	}
	// Device range goes to the device.
	rt.Write(0x4000_0010, []byte{1, 2, 3})
	if dev.lastAddr != 0x4000_0010 || len(dev.lastWrite) != 3 {
		t.Errorf("device write not routed: %+v", dev)
	}
	// Other addresses go to RAM.
	rt.Write(0x1000, []byte{9})
	if got := ram.ReadUint(0x1000, 1); got != 9 {
		t.Error("RAM write not routed")
	}
	if got := rt.Read(0x1000, 1); got[0] != 9 {
		t.Error("RAM read not routed")
	}
}

func TestRouterRejectsOverlap(t *testing.T) {
	rt := NewRouter(NewMemory())
	if err := rt.Register(0x1000, 0x1000, "a", &fakeTarget{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(0x1800, 0x1000, "b", &fakeTarget{}); err == nil {
		t.Error("overlap not rejected")
	}
	if err := rt.Register(0x2000, 0x1000, "c", &fakeTarget{}); err != nil {
		t.Errorf("adjacent region rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindCached.String() != "cached" || KindCombining.String() != "combining" {
		t.Error("Kind.String wrong")
	}
}
