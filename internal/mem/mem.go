// Package mem models the machine's memory substrate: sparse physical
// memory, per-process page tables with attribute bits, an ASID-tagged TLB,
// and the physical-address router that directs accesses to RAM or to
// memory-mapped devices.
//
// Page attributes are the mechanism the paper uses to steer stores (§3.1):
// a page is cached, uncached, or uncached-combining. Stores to combining
// pages are captured by the conditional store buffer; a swap to a combining
// page is the conditional flush.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PageBits and PageSize define the (fixed) 4 KB page geometry.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	pageMask = PageSize - 1
)

// ByteOrder is the simulated machine's byte order (little-endian).
var ByteOrder = binary.LittleEndian

// Memory is sparse physical memory. The zero value is ready to use; pages
// materialize (zero-filled) on first touch.
type Memory struct {
	pages map[uint64]*[PageSize]byte
}

// NewMemory returns an empty physical memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(pa uint64) *[PageSize]byte {
	pn := pa >> PageBits
	p, ok := m.pages[pn]
	if !ok {
		p = new([PageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// Read copies len(dst) bytes starting at physical address pa.
func (m *Memory) Read(pa uint64, dst []byte) {
	for len(dst) > 0 {
		p := m.page(pa)
		off := pa & pageMask
		n := copy(dst, p[off:])
		dst = dst[n:]
		pa += uint64(n)
	}
}

// Write copies src into physical memory starting at pa.
func (m *Memory) Write(pa uint64, src []byte) {
	for len(src) > 0 {
		p := m.page(pa)
		off := pa & pageMask
		n := copy(p[off:], src)
		src = src[n:]
		pa += uint64(n)
	}
}

// ReadUint reads an n-byte little-endian unsigned integer (n in 1,2,4,8).
func (m *Memory) ReadUint(pa uint64, n int) uint64 {
	var buf [8]byte
	m.Read(pa, buf[:n])
	return ByteOrder.Uint64(buf[:])
}

// WriteUint writes an n-byte little-endian unsigned integer.
func (m *Memory) WriteUint(pa uint64, n int, v uint64) {
	var buf [8]byte
	ByteOrder.PutUint64(buf[:], v)
	m.Write(pa, buf[:n])
}

// PagesTouched reports how many physical pages have been materialized.
func (m *Memory) PagesTouched() int { return len(m.pages) }

// Kind classifies a page's access policy (paper §3.1: attribute bits in the
// page table entry).
type Kind uint8

const (
	// KindCached pages go through the cache hierarchy.
	KindCached Kind = iota
	// KindUncached pages bypass the caches; stores enter the uncached
	// buffer, loads block until the bus transaction completes.
	KindUncached
	// KindCombining pages are uncached-combining: stores are captured by
	// the conditional store buffer and a swap is the conditional flush.
	KindCombining
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindCached:
		return "cached"
	case KindUncached:
		return "uncached"
	case KindCombining:
		return "combining"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// PTE is a page-table entry: translation plus attributes.
type PTE struct {
	PFN      uint64 // physical frame number (pa >> PageBits)
	Kind     Kind
	Writable bool
	Valid    bool
}

// PageTable maps one process's virtual pages to PTEs. It is two-level: a
// directory of leaves, each a flat array of the PTEs of one 2 MB region,
// so mapping a contiguous window costs one allocation per leaf. The zero
// value is an empty table.
type PageTable struct {
	dir   map[uint64]*ptLeaf // keyed by vpn >> leafBits
	valid int
}

const (
	leafBits = 9 // PTEs per leaf: 512 pages, 2 MB
	leafMask = 1<<leafBits - 1
)

type ptLeaf [1 << leafBits]PTE

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable { return &PageTable{} }

// leaf returns the leaf holding vpn, creating it (and the directory) on
// first use.
func (pt *PageTable) leaf(vpn uint64) *ptLeaf {
	if pt.dir == nil {
		pt.dir = make(map[uint64]*ptLeaf)
	}
	l := pt.dir[vpn>>leafBits]
	if l == nil {
		l = new(ptLeaf)
		pt.dir[vpn>>leafBits] = l
	}
	return l
}

// Map installs a translation for the page containing va.
func (pt *PageTable) Map(va, pa uint64, kind Kind, writable bool) {
	pt.MapRange(va, pa, 1, kind, writable)
}

// MapRange maps [va, va+size) to [pa, pa+size), page by page. An empty
// range maps nothing; a range running past the top of the address space
// stops there.
func (pt *PageTable) MapRange(va, pa, size uint64, kind Kind, writable bool) {
	if size == 0 {
		return
	}
	end := va + size - 1
	if end < va {
		end = math.MaxUint64
	}
	first := va >> PageBits
	last := end >> PageBits
	var l *ptLeaf
	for vpn := first; vpn <= last; vpn++ {
		if l == nil || vpn&leafMask == 0 {
			l = pt.leaf(vpn)
		}
		e := &l[vpn&leafMask]
		if !e.Valid {
			pt.valid++
		}
		*e = PTE{PFN: pa>>PageBits + (vpn - first), Kind: kind, Writable: writable, Valid: true}
	}
}

// Lookup returns the PTE for the page containing va.
func (pt *PageTable) Lookup(va uint64) (PTE, bool) {
	vpn := va >> PageBits
	l := pt.dir[vpn>>leafBits]
	if l == nil {
		return PTE{}, false
	}
	e := l[vpn&leafMask]
	return e, e.Valid
}

// Unmap removes the translation for the page containing va.
func (pt *PageTable) Unmap(va uint64) {
	vpn := va >> PageBits
	if l := pt.dir[vpn>>leafBits]; l != nil && l[vpn&leafMask].Valid {
		l[vpn&leafMask] = PTE{}
		pt.valid--
	}
}

// Len reports the number of valid entries.
func (pt *PageTable) Len() int { return pt.valid }
