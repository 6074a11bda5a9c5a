package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := RoadMesh(400, 7)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name != g.Name || g2.N != g.N || len(g2.Dests) != len(g.Dests) {
		t.Fatalf("shape mismatch: %s/%d/%d vs %s/%d/%d", g2.Name, g2.N, len(g2.Dests), g.Name, g.N, len(g.Dests))
	}
	for i := range g.Dests {
		if g.Dests[i] != g2.Dests[i] || g.Weights[i] != g2.Weights[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	for i := range g.Offsets {
		if g.Offsets[i] != g2.Offsets[i] {
			t.Fatalf("offset %d differs", i)
		}
	}
}

func TestSaveLoadUnweighted(t *testing.T) {
	g := UniformRandom(300, 4, 3)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Weights != nil {
		t.Fatal("weights materialized for unweighted graph")
	}
}

// TestSaveLoadManyChunks round-trips a weighted graph whose edge arrays
// span several of Load's read chunks, and checks that the arrays grown
// chunk by chunk end exactly full.
func TestSaveLoadManyChunks(t *testing.T) {
	g := RoadMesh(10000, 3)
	if g.NumEdges() < 2*readChunk {
		t.Fatalf("%d edges fit in two read chunks", g.NumEdges())
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(g, g2) {
		t.Fatal("loaded CSR differs from the saved one")
	}
	if cap(g2.Dests) != len(g2.Dests) || cap(g2.Weights) != len(g2.Weights) {
		t.Fatalf("edge arrays of %d values have capacity %d and %d", len(g2.Dests), cap(g2.Dests), cap(g2.Weights))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a graph file at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	g := UniformRandom(100, 4, 1)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// header returns a file's magic and header fields with no body.
func header(n, edges, weighted, nameLen int32) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, []int32{n, edges, weighted, nameLen})
	return buf.Bytes()
}

// TestLoadRejectsBadHeader feeds Load headers that lie about the body.
// Each must fail with an error, not a panic, and must not allocate what
// the header claims: memory follows the bytes actually present.
func TestLoadRejectsBadHeader(t *testing.T) {
	const allocLimit = 8 << 20
	for _, c := range []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"n=MaxInt32", header(math.MaxInt32, 0, 0, 0), "implausible header"},
		{"negative n", header(-1, 0, 0, 0), "implausible header"},
		{"weighted=2", header(4, 0, 2, 0), "implausible header"},
		{"weighted=-1", header(4, 0, -1, 0), "implausible header"},
		{"name too long", header(4, 0, 0, 256), "implausible header"},
		{"missing name", header(4, 0, 0, 8), "reading name"},
		{"n=1<<24, no body", header(1<<24, 0, 0, 0), "unexpected EOF"},
		{"m=1<<24, no dests", append(header(1, 1<<24, 0, 0), 0, 0, 0, 0, 0, 0, 0, 0), "unexpected EOF"},
		{"m=1<<24, no weights", append(header(0, 1<<24, 1, 0), 0, 0, 0, 0), "unexpected EOF"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := Load(bytes.NewReader(c.data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("loaded a graph of %d nodes", g.N)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q, want it to mention %q", err, c.want)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= allocLimit {
				t.Errorf("allocated %d bytes, want under %d", d, allocLimit)
			}
		})
	}
}
