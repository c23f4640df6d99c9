// Recording reader: parses the length-prefixed frame stream back into a
// Recording, tolerating a truncated tail (an aborted writer leaves a
// valid prefix), plus the tolerance-aware Diff used for same-seed
// regression checks and parallel-vs-sequential identity tests.
package rec

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// Recording is a fully parsed recording file.
type Recording struct {
	Version   int
	Every     uint64
	Start     uint64 // cycle the recorder sealed (header "c")
	End       uint64 // footer cycle (0 if not cleanly closed)
	Sources   []string
	SLOSpecs  []string
	CtrNames  []string
	HistNames []string
	Windows   []Window
	Events    []Event
	Clean     bool // footer frame present
	Truncated bool // trailing partial frame dropped
}

// frameJSON is the union of every frame kind's fields.
type frameJSON struct {
	K       string      `json:"k"`
	V       int         `json:"v"`
	Every   uint64      `json:"every"`
	C       uint64      `json:"c"`
	Sources []string    `json:"sources"`
	SLO     []string    `json:"slo"`
	CtrN    []string    `json:"ctrn"`
	HistN   []string    `json:"histn"`
	I       uint64      `json:"i"`
	C0      uint64      `json:"c0"`
	C1      uint64      `json:"c1"`
	Ctr     [][2]uint64 `json:"ctr"`
	Hist    [][7]uint64 `json:"hist"`
	Ev      string      `json:"ev"`
	N       string      `json:"n"`
	R       string      `json:"r"`
	Val     float64     `json:"val"`
	Windows uint64      `json:"windows"`
	Events  uint64      `json:"events"`
}

// ReadFile parses a recording file.
func ReadFile(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rc, err := Read(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rc, nil
}

// Read parses recording bytes. A malformed or incomplete trailing frame
// marks the recording Truncated and is dropped; everything before it is
// returned. An error is returned only when no valid header exists.
func Read(data []byte) (*Recording, error) {
	rc := &Recording{}
	sawHeader := false
	pos := 0
	for pos < len(data) {
		// "<len>\n<json>\n"
		nl := -1
		for i := pos; i < len(data); i++ {
			if data[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			rc.Truncated = true
			break
		}
		// Bound flen by the bytes left after "\n" and before the closing
		// "\n" before adding it to nl: a length near MaxInt would wrap.
		flen, err := strconv.Atoi(string(data[pos:nl]))
		if err != nil || flen < 0 || flen > len(data)-nl-2 || data[nl+1+flen] != '\n' {
			rc.Truncated = true
			break
		}
		doc := data[nl+1 : nl+1+flen]
		pos = nl + 1 + flen + 1

		var f frameJSON
		if err := json.Unmarshal(doc, &f); err != nil {
			rc.Truncated = true
			break
		}
		switch f.K {
		case "h":
			if sawHeader {
				return nil, fmt.Errorf("rec: duplicate header frame")
			}
			if f.V != FormatVersion {
				return nil, fmt.Errorf("rec: unsupported format version %d (want %d)", f.V, FormatVersion)
			}
			sawHeader = true
			rc.Version = f.V
			rc.Every = f.Every
			rc.Start = f.C
			rc.Sources = f.Sources
			rc.SLOSpecs = f.SLO
			rc.CtrNames = f.CtrN
			rc.HistNames = f.HistN
		case "w":
			if !sawHeader {
				return nil, fmt.Errorf("rec: window frame before header")
			}
			if len(f.Ctr) != len(rc.CtrNames) || len(f.Hist) != len(rc.HistNames) {
				return nil, fmt.Errorf("rec: window %d series count mismatch", f.I)
			}
			w := Window{
				Index: f.I, C0: f.C0, C1: f.C1,
				CtrEnd:   make([]uint64, len(f.Ctr)),
				CtrDelta: make([]uint64, len(f.Ctr)),
				Hist:     make([]HistWindow, len(f.Hist)),
			}
			for i, p := range f.Ctr {
				w.CtrEnd[i], w.CtrDelta[i] = p[0], p[1]
			}
			for i, h := range f.Hist {
				w.Hist[i] = HistWindow{N: h[0], Sum: h[1], Min: h[2], P50: h[3], P95: h[4], P99: h[5], Max: h[6]}
			}
			rc.Windows = append(rc.Windows, w)
		case "e":
			if !sawHeader {
				return nil, fmt.Errorf("rec: event frame before header")
			}
			rc.Events = append(rc.Events, Event{Cycle: f.C, Kind: f.Ev, Node: f.N, Rule: f.R, Value: f.Val})
		case "f":
			rc.Clean = true
			rc.End = f.C
		default:
			return nil, fmt.Errorf("rec: unknown frame kind %q", f.K)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("rec: no header frame (not a recording?)")
	}
	return rc, nil
}

// WindowAt returns the window covering the given cycle (C0 < cycle <=
// C1), or the nearest one when the cycle falls outside the recording;
// ok=false only when there are no windows at all.
func (rc *Recording) WindowAt(cycle uint64) (*Window, bool) {
	if len(rc.Windows) == 0 {
		return nil, false
	}
	i := sort.Search(len(rc.Windows), func(i int) bool { return rc.Windows[i].C1 >= cycle })
	if i == len(rc.Windows) {
		i = len(rc.Windows) - 1
	}
	return &rc.Windows[i], true
}

// CounterIndex returns the series index of a counter name, or -1.
func (rc *Recording) CounterIndex(name string) int { return indexOf(rc.CtrNames, name) }

// HistIndex returns the series index of a histogram name, or -1.
func (rc *Recording) HistIndex(name string) int { return indexOf(rc.HistNames, name) }

// maxDiffs caps Diff output so two wildly different recordings don't
// produce megabytes of noise.
const maxDiffs = 50

// Diff compares two recordings. tol is a relative tolerance applied to
// every numeric comparison (0 = exact): values a,b differ when
// |a-b| > tol*max(|a|,|b|). Returns human-readable differences, empty
// when the recordings match — the same-seed regression contract.
func Diff(a, b *Recording, tol float64) []string {
	var d []string
	add := func(format string, args ...interface{}) {
		if len(d) < maxDiffs {
			d = append(d, fmt.Sprintf(format, args...))
		} else if len(d) == maxDiffs {
			d = append(d, "... (further differences suppressed)")
		}
	}
	if !eqStrings(a.CtrNames, b.CtrNames) {
		add("counter series tables differ (%d vs %d series)", len(a.CtrNames), len(b.CtrNames))
		return d
	}
	if !eqStrings(a.HistNames, b.HistNames) {
		add("histogram series tables differ (%d vs %d series)", len(a.HistNames), len(b.HistNames))
		return d
	}
	if a.Every != b.Every {
		add("window cadence differs: %d vs %d", a.Every, b.Every)
	}
	if len(a.Windows) != len(b.Windows) {
		add("window count differs: %d vs %d", len(a.Windows), len(b.Windows))
	}
	n := len(a.Windows)
	if len(b.Windows) < n {
		n = len(b.Windows)
	}
	near := func(x, y uint64) bool {
		if x == y {
			return true
		}
		if tol <= 0 {
			return false
		}
		fx, fy := float64(x), float64(y)
		diff := fx - fy
		if diff < 0 {
			diff = -diff
		}
		m := fx
		if fy > m {
			m = fy
		}
		return diff <= tol*m
	}
	for wi := 0; wi < n; wi++ {
		wa, wb := &a.Windows[wi], &b.Windows[wi]
		if wa.C0 != wb.C0 || wa.C1 != wb.C1 {
			add("window %d bounds differ: (%d,%d] vs (%d,%d]", wi, wa.C0, wa.C1, wb.C0, wb.C1)
			continue
		}
		for i := range wa.CtrEnd {
			if !near(wa.CtrEnd[i], wb.CtrEnd[i]) || !near(wa.CtrDelta[i], wb.CtrDelta[i]) {
				add("window %d (cycle %d) counter %s: end %d/%d delta %d/%d",
					wi, wa.C1, a.CtrNames[i], wa.CtrEnd[i], wb.CtrEnd[i], wa.CtrDelta[i], wb.CtrDelta[i])
			}
		}
		for i := range wa.Hist {
			ha, hb := &wa.Hist[i], &wb.Hist[i]
			if !near(ha.N, hb.N) || !near(ha.Sum, hb.Sum) || !near(ha.Min, hb.Min) ||
				!near(ha.P50, hb.P50) || !near(ha.P95, hb.P95) || !near(ha.P99, hb.P99) || !near(ha.Max, hb.Max) {
				add("window %d (cycle %d) histogram %s: n=%d/%d p50=%d/%d p99=%d/%d max=%d/%d",
					wi, wa.C1, a.HistNames[i], ha.N, hb.N, ha.P50, hb.P50, ha.P99, hb.P99, ha.Max, hb.Max)
			}
		}
	}
	if len(a.Events) != len(b.Events) {
		add("event count differs: %d vs %d", len(a.Events), len(b.Events))
	}
	ne := len(a.Events)
	if len(b.Events) < ne {
		ne = len(b.Events)
	}
	for i := 0; i < ne; i++ {
		ea, eb := a.Events[i], b.Events[i]
		if ea != eb {
			add("event %d differs: cycle %d %s %s vs cycle %d %s %s",
				i, ea.Cycle, ea.Kind, ea.Node, eb.Cycle, eb.Kind, eb.Node)
		}
	}
	return d
}

// eqStrings reports element-wise equality.
func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
