package main

import (
	"math"
	"testing"

	"csbsim"
	"csbsim/internal/mem"
)

func TestParseNum(t *testing.T) {
	tests := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0x40000000", 0x4000_0000, true},
		{"4096", 4096, true},
		{"64K", 64 << 10, true},
		{"64k", 64 << 10, true},
		{"2M", 2 << 20, true},
		{"0x10K", 0x10 << 10, true},
		{"", 0, false},
		{"xyz", 0, false},
		{"12Q", 0, false},
		{"0xffffffffffffffff", math.MaxUint64, true},
		{"16777215M", 16777215 << 20, true},
		{"0x40000000000000K", 0, false}, // 2^54 KB overflows 64 bits
		{"17592186044416M", 0, false},   // 2^44 MB overflows 64 bits
		{"18446744073709551616", 0, false},
	}
	for _, tt := range tests {
		got, err := parseNum(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("parseNum(%q) err = %v, ok = %v", tt.in, err, tt.ok)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("parseNum(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestMapRangeSpec(t *testing.T) {
	m, err := csbsim.NewMachine(csbsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := mapRange(m, "0x40000000:4096", mem.KindCombining); err != nil {
		t.Fatal(err)
	}
	pte, ok := m.AddressSpace(0).Lookup(0x4000_0000)
	if !ok || pte.Kind != mem.KindCombining {
		t.Errorf("mapping not installed: %+v ok=%v", pte, ok)
	}
	if err := mapRange(m, "", mem.KindUncached); err != nil {
		t.Errorf("empty spec should be a no-op: %v", err)
	}
	// A range ending exactly at the top of the address space is whole.
	if err := mapRange(m, "0xfffffffffffff000:4K", mem.KindUncached); err != nil {
		t.Errorf("top page: %v", err)
	}
	before := m.AddressSpace(0).Len()
	for _, bad := range []string{
		"justaddr", "x:y", "0x1000:",
		"0:0", "0x1000:0", // empty: used to map every page from address 0 up
		"0xfffffffffffff000:8K", "0xffffffffffffffff:2", // wrap past 2^64
		"0x1000:0x40000000000000K", // size overflows 64 bits
	} {
		if err := mapRange(m, bad, mem.KindUncached); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
	if got := m.AddressSpace(0).Len(); got != before {
		t.Errorf("rejected specs mapped %d pages", got-before)
	}
}
