package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The reference outputs every op is checked against. Regenerate them from
// the current simulator with `go test -run TestReferences -update` in this
// directory; a change that claims only speed must leave them untouched.
//
//go:embed testdata
var testdata embed.FS

// references holds the expected simulated outputs.
type references struct {
	figures      map[string][]byte // figure ID -> bench.Format table
	figureCycles map[string]uint64 // figure ID -> simulated node-cycles
	stream       map[string][]byte // "uncached"/"csb" -> sim.Stats JSON at the budget
	serveReport  []byte            // serve report JSON for serveRefSeed
	serveRecSHA  string            // sha256 of the recording for serveRefSeed
}

// serveRefSeed is the seed the serve references were recorded with: the
// defaults of `make flight-recorder` (loadgen seed 1+i, wire-fault seed 1).
const serveRefSeed = 1

func loadReferences() (*references, error) {
	r := &references{
		figures: map[string][]byte{},
		stream:  map[string][]byte{},
	}
	read := func(name string) ([]byte, error) {
		return testdata.ReadFile("testdata/" + name)
	}
	for _, id := range figureIDs {
		b, err := read("figures/" + id + ".txt")
		if err != nil {
			return nil, err
		}
		r.figures[id] = b
	}
	b, err := read("figures/cycles.json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &r.figureCycles); err != nil {
		return nil, fmt.Errorf("figures/cycles.json: %w", err)
	}
	for _, id := range figureIDs {
		if r.figureCycles[id] == 0 {
			return nil, fmt.Errorf("figures/cycles.json: no cycle count for %s", id)
		}
	}
	for _, half := range streamHalves {
		if r.stream[half.name], err = read("stream_" + half.name + ".json"); err != nil {
			return nil, err
		}
	}
	if r.serveReport, err = read("serve_report.json"); err != nil {
		return nil, err
	}
	if b, err = read("serve_recording.sha256"); err != nil {
		return nil, err
	}
	r.serveRecSHA = strings.TrimSpace(string(b))
	return r, nil
}

// sameBytes fails when got differs from want, naming the first differing
// byte.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s differs from its reference at byte %d (got %d bytes, want %d)", what, i, len(got), len(want))
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// writeReferences writes freshly produced reference outputs into dir.
func writeReferences(dir string, r *references) error {
	if err := os.MkdirAll(filepath.Join(dir, "figures"), 0o755); err != nil {
		return err
	}
	files := map[string][]byte{
		"serve_report.json":      r.serveReport,
		"serve_recording.sha256": []byte(r.serveRecSHA + "\n"),
	}
	for id, b := range r.figures {
		files["figures/"+id+".txt"] = b
	}
	cycles, err := json.MarshalIndent(r.figureCycles, "", "  ")
	if err != nil {
		return err
	}
	files["figures/cycles.json"] = append(cycles, '\n')
	for name, b := range r.stream {
		files["stream_"+name+".json"] = b
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
