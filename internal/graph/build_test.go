package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"

	"minnow/internal/rng"
)

// csrDigest hashes a graph's CSR arrays and name.
func csrDigest(g *Graph) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, int64(g.N))
	binary.Write(h, binary.LittleEndian, g.Offsets)
	binary.Write(h, binary.LittleEndian, g.Dests)
	binary.Write(h, binary.LittleEndian, g.Weights)
	h.Write([]byte(g.Name))
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// referenceBuild is the obvious CSR build that Build must match: a stable
// sort of the edge indices by (source, destination), then one pass that
// drops self-loops and every repeat of a pair, keeping the first added.
func referenceBuild(b *Builder, name string) *Graph {
	order := make([]int, len(b.src))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		ex, ey := order[x], order[y]
		if b.src[ex] != b.src[ey] {
			return b.src[ex] < b.src[ey]
		}
		return b.dst[ex] < b.dst[ey]
	})
	g := &Graph{Name: name, N: b.n, Offsets: make([]int32, b.n+1)}
	if b.weighted {
		g.Weights = []int32{}
	}
	for k, e := range order {
		s, d := b.src[e], b.dst[e]
		if s == d || k > 0 && s == b.src[order[k-1]] && d == b.dst[order[k-1]] {
			continue
		}
		g.Dests = append(g.Dests, d)
		if b.weighted {
			g.Weights = append(g.Weights, b.w[e])
		}
		g.Offsets[s+1]++
	}
	for v := 0; v < b.n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	return g
}

// sameCSR reports whether two graphs hold the same CSR arrays, with
// weights present in both or in neither.
func sameCSR(a, b *Graph) bool {
	return a.N == b.N && slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Dests, b.Dests) &&
		(a.Weights == nil) == (b.Weights == nil) && slices.Equal(a.Weights, b.Weights)
}

// TestBuildPinned pins the CSR that Build and every generator produce,
// byte for byte. The duplicate-heavy weighted graph pins the duplicate
// rule: each row is sorted by destination and a repeated pair keeps the
// weight added first, which is also what referenceBuild yields. The
// generator digests predate the counting sorts; no generator repeats a
// weighted pair, so the rule leaves them unchanged.
func TestBuildPinned(t *testing.T) {
	r := rng.New(7)
	b := NewBuilder(300, true)
	for i := 0; i < 300*40; i++ {
		b.AddWeighted(int32(r.Intn(300)), int32(r.Intn(300)), int32(1+r.Intn(1000)))
	}
	dup := b.Build("dup")
	if !sameCSR(dup, referenceBuild(b, "dup")) {
		t.Error("duplicates: Build differs from the reference build")
	}
	const n = 5000
	for _, c := range []struct {
		name, want string
		g          *Graph
	}{
		{"duplicates", "2535d0f204001c141e36dea1", dup},
		{"RoadMesh", "cc419fca5c2a1cb08937d167", RoadMesh(n, 1)},
		{"UniformRandom", "29e9d6edf7a5c8cab8a38878", UniformRandom(n, 4, 1)},
		{"Kronecker", "39048e5d608c97d2f1bf08e9", Kronecker(12, 8, 1)},
		{"SmallWorld", "a628c144c77de8f4a8fc34bd", SmallWorld(n, 6, 1)},
		{"PowerLawTalk", "9820a4132afbbb5938056b11", PowerLawTalk(n, 1)},
		{"CommunityDBLP", "8d402acde08a9f7585ea3612", CommunityDBLP(n, 1)},
		{"Bipartite", "aab54e33758f53690a1ca460", Bipartite(n/2, n/2, 1)},
	} {
		if got := csrDigest(c.g); got != c.want {
			t.Errorf("%s: CSR digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGeneratorsAllocateOnce checks that building a graph costs a fixed
// handful of allocations, not one per row or per regrowth of the edge
// list: each generator reserves its edge list up front and Build's two
// counting sorts allocate their bucket cursors and scatter buffers once.
func TestGeneratorsAllocateOnce(t *testing.T) {
	const n = 1 << 14
	for name, gen := range map[string]func(){
		"RoadMesh":      func() { RoadMesh(n, 1) },
		"UniformRandom": func() { UniformRandom(n, 4, 1) },
		"Kronecker":     func() { Kronecker(14, 4, 1) },
		"SmallWorld":    func() { SmallWorld(n, 6, 1) },
		"PowerLawTalk":  func() { PowerLawTalk(n, 1) },
		"CommunityDBLP": func() { CommunityDBLP(n, 1) },
		"Bipartite":     func() { Bipartite(n/2, n/2, 1) },
	} {
		if a := testing.AllocsPerRun(3, gen); a > 32 {
			t.Errorf("%s: %.0f allocations per graph, want at most 32", name, a)
		}
	}
}

// FuzzBuild checks Build against referenceBuild on builders decoded from
// a byte program: byte 0 picks 1-64 nodes, byte 1's low bit picks a
// weighted graph, and each following record of 2 bytes (3 when weighted:
// the last is the weight) adds one edge. A record whose first byte has
// its high bit set repeats the previous edge's endpoints, so weighted
// repeats of one pair are common; small node counts make self-loops and
// unweighted repeats common too.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{4, 0, 0, 2, 0, 1, 0, 2, 0, 0, 3, 1})
	f.Add([]byte{3, 1, 0, 1, 9, 0x80, 0, 5, 0, 1, 7, 2, 2, 1})
	f.Add([]byte{64, 1, 5, 5, 1, 63, 0, 2, 0x80, 0, 3, 63, 0, 4})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0]%64)
		weighted := data[1]&1 == 1
		rec := 2
		if weighted {
			rec = 3
		}
		b := NewBuilder(n, weighted)
		var s, d int32
		for p := 2; p+rec <= len(data); p += rec {
			if data[p]&0x80 == 0 {
				s, d = int32(data[p])%int32(n), int32(data[p+1])%int32(n)
			}
			if weighted {
				b.AddWeighted(s, d, int32(data[p+2])+1)
			} else {
				b.AddEdge(s, d)
			}
		}
		g := b.Build("fuzz")
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if want := referenceBuild(b, "fuzz"); !sameCSR(g, want) {
			t.Fatalf("Build differs from the reference build\ngot  %v %v %v\nwant %v %v %v",
				g.Offsets, g.Dests, g.Weights, want.Offsets, want.Dests, want.Weights)
		}
	})
}
