package cache

import (
	"math/rand"
	"testing"

	"csbsim/internal/bus"
)

func small() Config {
	return Config{Size: 256, Assoc: 2, LineSize: 64, HitLatency: 1}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		small(),
		{Size: 32 << 10, Assoc: 2, LineSize: 64, HitLatency: 1},
		{Size: 64, Assoc: 1, LineSize: 64},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %+v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{Size: 0, Assoc: 1, LineSize: 64},
		{Size: 100, Assoc: 1, LineSize: 64},
		{Size: 256, Assoc: 0, LineSize: 64},
		{Size: 256, Assoc: 2, LineSize: 48},
		{Size: 192, Assoc: 1, LineSize: 64}, // 3 sets
		{Size: 256, Assoc: 2, LineSize: 64, HitLatency: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %+v accepted", c)
		}
	}
}

func TestLookupInsert(t *testing.T) {
	c, err := New(small()) // 2 sets x 2 ways
	if err != nil {
		t.Fatal(err)
	}
	if c.Lookup(0x1000) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x1000)
	if !c.Lookup(0x1000) {
		t.Fatal("miss after insert")
	}
	if !c.Lookup(0x1030) { // same line
		t.Fatal("same-line address missed")
	}
	if c.Lookup(0x1040) { // next line
		t.Fatal("adjacent line hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := New(small()) // sets=2: lines 0x000,0x080,... map to set 0
	// Three lines in set 0 (stride 128 = 2 sets * 64).
	c.Insert(0x0000)
	c.Insert(0x0080)
	c.Lookup(0x0000) // make 0x0080 LRU
	victim, dirty, evicted := c.Insert(0x0100)
	if !evicted || dirty {
		t.Fatalf("evicted=%v dirty=%v", evicted, dirty)
	}
	if victim != 0x0080 {
		t.Errorf("victim = %#x, want 0x0080", victim)
	}
	if c.Contains(0x0080) {
		t.Error("victim still present")
	}
	if !c.Contains(0x0000) || !c.Contains(0x0100) {
		t.Error("survivors missing")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c, _ := New(small())
	c.Insert(0x0000)
	c.SetDirty(0x0010)
	c.Insert(0x0080)
	_, dirty, evicted := c.Insert(0x0100) // evicts 0x0000 (LRU)
	if !evicted || !dirty {
		t.Errorf("dirty victim not reported: evicted=%v dirty=%v", evicted, dirty)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c, _ := New(small())
	c.Insert(0x0000)
	c.SetDirty(0x0000)
	dirty, present := c.Invalidate(0x0000)
	if !present || !dirty {
		t.Errorf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if _, present := c.Invalidate(0x0000); present {
		t.Error("double invalidate reported present")
	}
}

func TestContainsDoesNotTouchStats(t *testing.T) {
	c, _ := New(small())
	c.Contains(0x0)
	if s := c.Stats(); s.Hits+s.Misses != 0 {
		t.Error("Contains counted as access")
	}
}

// ---- hierarchy ----

func newHier(t *testing.T) (*Hierarchy, *bus.Bus) {
	t.Helper()
	h, err := NewHierarchy(DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.New(bus.Config{Model: bus.Multiplexed, WidthBytes: 8, ReadWait: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, b
}

// step advances the hierarchy+bus with a CPU:bus ratio of 1 (tests only
// care about event ordering, not exact latency here).
func step(h *Hierarchy, b *bus.Bus, n int) {
	for i := 0; i < n; i++ {
		h.TickCPU()
		b.Tick()
		h.TickBus(b)
	}
}

func TestHierarchyMissFillsBothLevels(t *testing.T) {
	h, b := newHier(t)
	done := false
	lat, hit, accepted := h.Load(0x1000, false, func() { done = true })
	if hit || !accepted || lat != 0 {
		t.Fatalf("expected miss: lat=%d hit=%v acc=%v", lat, hit, accepted)
	}
	step(h, b, 200)
	if !done {
		t.Fatal("fill callback never ran")
	}
	if !h.Present(0x1000, false) {
		t.Error("line not in L1D after fill")
	}
	if !h.L2().Contains(0x1000) {
		t.Error("line not in L2 after fill")
	}
	// Second access hits.
	lat, hit, _ = h.Load(0x1008, false, nil)
	if !hit || lat != h.L1D().Config().HitLatency {
		t.Errorf("expected L1 hit, lat=%d hit=%v", lat, hit)
	}
}

func TestHierarchyL2HitAvoidsBus(t *testing.T) {
	h, b := newHier(t)
	h.L2().Preload(0x2000)
	done := false
	h.Load(0x2000, false, func() { done = true })
	step(h, b, 50)
	if !done {
		t.Fatal("L2 hit never completed")
	}
	if b.Stats().Transactions != 0 {
		t.Error("L2 hit went to the bus")
	}
}

func TestHierarchyMergesMissesToSameLine(t *testing.T) {
	h, b := newHier(t)
	var n int
	h.Load(0x3000, false, func() { n++ })
	h.Load(0x3008, false, func() { n++ })
	step(h, b, 200)
	if n != 2 {
		t.Fatalf("callbacks = %d, want 2", n)
	}
	if got := b.Stats().Transactions; got != 1 {
		t.Errorf("bus transactions = %d, want 1 (merged)", got)
	}
}

func TestHierarchyMSHRExhaustion(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MSHRs = 2
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, acc := h.Load(0x1000, false, nil); !acc {
		t.Fatal("first miss rejected")
	}
	if _, _, acc := h.Load(0x2000, false, nil); !acc {
		t.Fatal("second miss rejected")
	}
	if _, _, acc := h.Load(0x3000, false, nil); acc {
		t.Error("third miss accepted with 2 MSHRs")
	}
}

func TestInstructionAndDataSeparate(t *testing.T) {
	h, b := newHier(t)
	h.Load(0x4000, true, nil) // instruction fetch
	step(h, b, 200)
	if !h.Present(0x4000, true) {
		t.Error("line not in L1I")
	}
	if h.Present(0x4000, false) {
		t.Error("fetch polluted L1D")
	}
}

func TestStoreHitDrains(t *testing.T) {
	h, b := newHier(t)
	h.Warm(0x5000, false)
	if !h.Store(0x5000) {
		t.Fatal("store rejected")
	}
	if h.StoreBufferEmpty() {
		t.Fatal("write buffer empty immediately")
	}
	step(h, b, 5)
	if !h.StoreBufferEmpty() {
		t.Fatal("write buffer did not drain on hit")
	}
}

func TestStoreMissAllocates(t *testing.T) {
	h, b := newHier(t)
	h.Store(0x6000)
	step(h, b, 300)
	if !h.StoreBufferEmpty() {
		t.Fatal("store miss never completed")
	}
	if !h.Present(0x6000, false) {
		t.Error("write-allocate did not fill L1D")
	}
}

func TestWriteBufferFullRejects(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.WriteBuffer = 2
	h, _ := NewHierarchy(cfg)
	h.Store(0x1000)
	h.Store(0x2000)
	if h.Store(0x3000) {
		t.Error("store accepted into full write buffer")
	}
	if h.Stats().StoreStalls != 1 {
		t.Errorf("StoreStalls = %d", h.Stats().StoreStalls)
	}
}

func TestDirtyL2EvictionGoesToBus(t *testing.T) {
	cfg := DefaultHierConfig()
	// Tiny L2: 1 set x 1 way so any second line evicts the first.
	cfg.L2 = Config{Size: 64, Assoc: 1, LineSize: 64, HitLatency: 2}
	cfg.L1I = Config{Size: 64, Assoc: 1, LineSize: 64, HitLatency: 1}
	cfg.L1D = Config{Size: 64, Assoc: 1, LineSize: 64, HitLatency: 1}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := bus.New(bus.Config{Model: bus.Multiplexed, WidthBytes: 8, ReadWait: 2}, nil)

	// Fill line A and dirty it in L2 via L1 eviction path: simpler, dirty
	// it directly in L2 after a fill.
	h.Load(0x0000, false, nil)
	step(h, b, 100)
	h.L2().SetDirty(0x0000)
	// Miss line B evicts A from L2 (dirty) → writeback transaction.
	h.Load(0x1000, false, nil)
	step(h, b, 200)
	s := b.Stats()
	if s.Writes != 1 {
		t.Errorf("bus writes = %d, want 1 writeback", s.Writes)
	}
	if h.Stats().Writebacks != 1 {
		t.Errorf("hierarchy writebacks = %d", h.Stats().Writebacks)
	}
}

func TestHierConfigValidate(t *testing.T) {
	bad := DefaultHierConfig()
	bad.L1D.LineSize = 32
	if err := bad.Validate(); err == nil {
		t.Error("mismatched line sizes accepted")
	}
	bad2 := DefaultHierConfig()
	bad2.MSHRs = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero MSHRs accepted")
	}
}

func TestIdle(t *testing.T) {
	h, b := newHier(t)
	if !h.Idle() {
		t.Fatal("fresh hierarchy not idle")
	}
	h.Load(0x1000, false, nil)
	if h.Idle() {
		t.Fatal("hierarchy idle with outstanding miss")
	}
	step(h, b, 300)
	if !h.Idle() {
		t.Fatal("hierarchy not idle after drain")
	}
}

// Property: the most recently used line in a set is never the one
// evicted.
func TestLRUNeverEvictsMRU(t *testing.T) {
	c, err := New(Config{Size: 512, Assoc: 4, LineSize: 64, HitLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var lastTouched uint64
	haveTouch := false
	for i := 0; i < 5000; i++ {
		// Addresses in one set (stride = sets*line = 2*64).
		addr := uint64(rng.Intn(16)) * 128
		if rng.Intn(2) == 0 {
			if c.Lookup(addr) {
				lastTouched = addr &^ 63
				haveTouch = true
			}
		} else {
			victim, _, evicted := c.Insert(addr)
			if evicted && haveTouch && victim == lastTouched {
				t.Fatalf("step %d: evicted the MRU line %#x", i, victim)
			}
			lastTouched = addr &^ 63
			haveTouch = true
		}
	}
}

// refCache is the original per-set tag array: one slice per set, indexed
// by division by the set count. The oracle test drives it beside Cache to
// prove that the flat layout and the shift-and-mask index are exact.
type refCache struct {
	cfg   Config
	sets  [][]line
	clock uint64
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i] = make([]line, cfg.Assoc)
	}
	return &refCache{cfg: cfg, sets: sets}
}

func (c *refCache) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineSize)
	return lineAddr % uint64(len(c.sets)), lineAddr / uint64(len(c.sets))
}

func (c *refCache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	c.clock++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Insert(addr uint64) (victimAddr uint64, victimDirty, evicted bool) {
	set, tag := c.index(addr)
	c.clock++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			return 0, false, false
		}
		if !l.valid {
			victim = i
			oldest = 0
		} else if l.used < oldest {
			victim = i
			oldest = l.used
		}
	}
	v := &c.sets[set][victim]
	if v.valid {
		evicted = true
		victimDirty = v.dirty
		victimAddr = (v.tag*uint64(len(c.sets)) + set) * uint64(c.cfg.LineSize)
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	*v = line{tag: tag, used: c.clock, valid: true}
	return victimAddr, victimDirty, evicted
}

func (c *refCache) SetDirty(addr uint64) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.dirty = true
			return
		}
	}
}

func (c *refCache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.valid = false
			return l.dirty, true
		}
	}
	return false, false
}

func (c *refCache) Preload(addr uint64) {
	set, tag := c.index(addr)
	c.clock++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			return
		}
	}
	for i := range c.sets[set] {
		if !c.sets[set][i].valid {
			c.sets[set][i] = line{tag: tag, used: c.clock, valid: true}
			return
		}
	}
	c.sets[set][0] = line{tag: tag, used: c.clock, valid: true}
}

// TestCacheMatchesReference drives Cache and refCache with the same seeded
// random operation sequence over many geometries and compares every
// return value and the counters after each operation.
func TestCacheMatchesReference(t *testing.T) {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for _, lineSize := range []int{8, 16, 32, 64, 128} {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, nsets := range []int{1, 2, 4, 16, 64} {
				cfg := Config{Size: lineSize * assoc * nsets, Assoc: assoc, LineSize: lineSize, HitLatency: 1}
				c, err := New(cfg)
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				ref := newRefCache(cfg)
				rng := rand.New(rand.NewSource(int64(lineSize*1000 + assoc*100 + nsets)))
				// A pool of three times the capacity in lines forces
				// conflicts; a random high base exercises the top tag bits.
				lines := uint64(3 * assoc * nsets)
				for i := 0; i < 4000; i++ {
					addr := uint64(rng.Int63n(int64(lines)))*uint64(lineSize) + uint64(rng.Intn(lineSize))
					if rng.Intn(8) == 0 {
						addr += rng.Uint64() &^ (1<<20 - 1)
					}
					var got, want [3]uint64
					op := rng.Intn(6)
					switch op {
					case 0:
						got[0], want[0] = b(c.Lookup(addr)), b(ref.Lookup(addr))
					case 1:
						got[0], want[0] = b(c.Contains(addr)), b(ref.Contains(addr))
					case 2:
						va, vd, ev := c.Insert(addr)
						rva, rvd, rev := ref.Insert(addr)
						got, want = [3]uint64{va, b(vd), b(ev)}, [3]uint64{rva, b(rvd), b(rev)}
					case 3:
						c.SetDirty(addr)
						ref.SetDirty(addr)
					case 4:
						wd, wp := c.Invalidate(addr)
						rwd, rwp := ref.Invalidate(addr)
						got, want = [3]uint64{b(wd), b(wp)}, [3]uint64{b(rwd), b(rwp)}
					case 5:
						c.Preload(addr)
						ref.Preload(addr)
					}
					if got != want {
						t.Fatalf("%+v step %d op %d addr %#x: got %v, want %v", cfg, i, op, addr, got, want)
					}
					if c.Stats() != ref.stats {
						t.Fatalf("%+v step %d op %d addr %#x: stats %+v, want %+v", cfg, i, op, addr, c.Stats(), ref.stats)
					}
				}
			}
		}
	}
}
