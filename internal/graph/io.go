package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary CSR serialization: a small versioned header followed by the
// offsets, destinations, and optional weights as little-endian int32s.
// The format lets generated inputs be cached on disk and shared between
// tools (graphgen -save / minnowsim -graph).

// magic identifies the file format ("MNWG" + version).
var magic = [8]byte{'M', 'N', 'W', 'G', 0, 0, 0, 1}

// Save writes the graph in binary CSR form.
func (g *Graph) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	weighted := int32(0)
	if g.Weights != nil {
		weighted = 1
	}
	nameBytes := []byte(g.Name)
	if len(nameBytes) > 255 {
		nameBytes = nameBytes[:255]
	}
	hdr := []int32{int32(g.N), int32(len(g.Dests)), weighted, int32(len(nameBytes))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := bw.Write(nameBytes); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Dests); err != nil {
		return err
	}
	if weighted == 1 {
		if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a graph written by Save and validates it.
func Load(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("graph: bad magic %q", m[:4])
	}
	var n, edges, weighted, nameLen int32
	for _, p := range []*int32{&n, &edges, &weighted, &nameLen} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	// n+1 offsets must fit an int32 length.
	if n < 0 || n >= math.MaxInt32 || edges < 0 || nameLen < 0 || nameLen > 255 || weighted < 0 || weighted > 1 {
		return nil, fmt.Errorf("graph: implausible header n=%d m=%d weighted=%d name=%d", n, edges, weighted, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("graph: reading name: %w", err)
	}
	g := &Graph{Name: string(name), N: int(n)}
	var err error
	if g.Offsets, err = readInt32s(br, int(n)+1); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	if g.Dests, err = readInt32s(br, int(edges)); err != nil {
		return nil, fmt.Errorf("graph: reading dests: %w", err)
	}
	if weighted == 1 {
		if g.Weights, err = readInt32s(br, int(edges)); err != nil {
			return nil, fmt.Errorf("graph: reading weights: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readChunk is how many int32s readInt32s reads at a time.
const readChunk = 1 << 14

// readInt32s reads count little-endian int32s. It reads one chunk at a
// time and at most doubles the result's capacity per chunk, so a header
// that claims more values than the input holds costs memory in
// proportion to the bytes actually present and fails with
// io.ErrUnexpectedEOF instead of allocating the claim.
func readInt32s(r io.Reader, count int) ([]int32, error) {
	out := make([]int32, 0, min(count, readChunk))
	buf := make([]byte, 4*cap(out))
	for len(out) < count {
		k := min(count-len(out), readChunk)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(out)+k > cap(out) {
			out = append(make([]int32, 0, min(count, 2*cap(out))), out...)
		}
		for i := 0; i < k; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return out, nil
}
