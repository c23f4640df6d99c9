package cpu

import "csbsim/internal/isa"

// The decoded-instruction cache memoizes fetch's RAM read + decode per PC:
// a direct-mapped, PC-tagged array consulted before touching memory. The
// simulated programs are static, so a hit is always correct as long as the
// cache is invalidated whenever instruction bytes could have changed:
//
//   - wholesale (a generation bump) on Reset, RestoreState and
//     FlushPipeline — the points where a program is (re)loaded or the
//     kernel has mutated state behind the pipeline's back;
//   - per line on CPU-initiated RAM writes (cached store commit, cached
//     swap), in case a program writes over its own text.
//
// DMA writes are NOT snooped, matching the I-cache model (which also never
// observes device writes): a program that DMA'd over its own code was
// already incoherent before this cache existed.
//
// The cache is a memo, so its size changes host speed only, never the
// simulation. 256 entries (1 KB of text) cover the measured footprint:
// the benchmark's stream, serve and figures workloads fetch 26, 42 and
// 284 distinct PCs (the last spread over thousands of short machines),
// and at 4096, 1024 and 256 entries every miss was cold, none a
// conflict. A bigger array only costs zeroing in every New.

const (
	decCacheSize = 256 // entries; instructions are 4-byte aligned
	decCacheMask = decCacheSize - 1
)

type decEntry struct {
	pc   uint64
	gen  uint32
	inst isa.Inst
}

// decode returns the instruction at pc, from the decode cache when
// possible.
func (c *CPU) decode(pc uint64) isa.Inst {
	e := &c.decCache[(pc>>2)&decCacheMask]
	if e.gen == c.decGen && e.pc == pc {
		return e.inst
	}
	in := isa.Decode(uint32(c.ram.ReadUint(pc, 4)))
	*e = decEntry{pc: pc, gen: c.decGen, inst: in}
	return in
}

// invalidateDecodeCache drops every cached decode in O(1) by bumping the
// generation tag.
func (c *CPU) invalidateDecodeCache() {
	c.decGen++
}

// decInvalidate drops cached decodes overlapping a CPU store to RAM.
func (c *CPU) decInvalidate(pa uint64, size int) {
	for a := pa &^ 3; a < pa+uint64(size); a += 4 {
		e := &c.decCache[(a>>2)&decCacheMask]
		if e.pc == a {
			e.gen = 0
		}
	}
}
