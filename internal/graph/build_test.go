package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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

// TestBuildPinned pins the CSR that Build and every generator produce,
// byte for byte. The duplicate-heavy weighted graph pins which weight
// survives deduplication, which follows the row sort's order for equal
// destinations. The digests were generated with the sort.Slice row sort
// that slices.SortFunc replaced.
func TestBuildPinned(t *testing.T) {
	r := rng.New(7)
	b := NewBuilder(300, true)
	for i := 0; i < 300*40; i++ {
		b.AddWeighted(int32(r.Intn(300)), int32(r.Intn(300)), int32(1+r.Intn(1000)))
	}
	const n = 5000
	for _, c := range []struct {
		name, want string
		g          *Graph
	}{
		{"duplicates", "f8009215c5f7e28f791f635b", b.Build("dup")},
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
// list: each generator reserves its edge list up front and Build's row
// sort allocates nothing.
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
