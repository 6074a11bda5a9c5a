package core

import (
	"minnow/internal/graph"
	"minnow/internal/mem"
	"minnow/internal/worklist"
)

// PrefetchProgram generates worklist-directed prefetch work for tasks —
// the engine-resident helper function of Fig. 14. Framework developers
// write one per access pattern; the standard program covers "task → source
// node → edges → destination nodes", which all the paper's workloads use
// (TC's also covers each destination's adjacency list).
type PrefetchProgram interface {
	// Start returns a fresh stream of prefetch threadlets for task t.
	Start(t worklist.Task) PrefetchStream
}

// PrefetchStream yields prefetch threadlets one at a time. Each call to
// Next appends one threadlet's sequential load addresses (each load's
// address depends on the previous load's data) to buf and returns it;
// ok=false means the stream is exhausted. Separate Next calls are
// independent threadlets and may overlap in the engine's load buffer.
type PrefetchStream interface {
	Next(buf []uint64) (_ []uint64, ok bool)
}

// StandardProgram is Fig. 14's prefetchTask/prefetchEdge pair: the first
// threadlet loads the task descriptor and the source node; then one
// threadlet per edge of the task's range loads the edge record and its
// destination node.
type StandardProgram struct {
	G *graph.Graph
	// ListLines, when positive, also prefetches up to that many 64B lines
	// of each destination's adjacency list: the custom Triangle-Counting
	// prefetch function (§5.3), whose node-iterator-hashed operator
	// binary-searches each destination's list (O(log d) lines).
	ListLines int
}

// Start implements PrefetchProgram.
func (p *StandardProgram) Start(t worklist.Task) PrefetchStream {
	lo, hi := p.G.EdgeRange(t.Node)
	if !t.WholeNode() {
		lo, hi = p.G.Offsets[t.Node]+t.EdgeLo, p.G.Offsets[t.Node]+t.EdgeHi
	}
	return &standardStream{p: p, t: t, e: lo, hi: hi, head: true}
}

type standardStream struct {
	p    *StandardProgram
	t    worklist.Task
	e    int32
	hi   int32
	head bool
}

// Next implements PrefetchStream.
func (s *standardStream) Next(buf []uint64) ([]uint64, bool) {
	g := s.p.G
	if s.head {
		s.head = false
		// prefetchTask: the task descriptor, then the source node.
		if s.t.Desc != 0 {
			buf = append(buf, s.t.Desc)
		}
		return append(buf, g.NodeAddr(s.t.Node)), true
	}
	if s.e >= s.hi {
		return buf, false
	}
	// prefetchEdge: one edge record, then its destination node.
	dst := g.Dests[s.e]
	buf = append(buf, g.EdgeAddr(s.e))
	buf = append(buf, g.NodeAddr(dst))
	s.e++
	if s.p.ListLines <= 0 {
		return buf, true
	}
	// The lines a binary search over the destination's list touches,
	// midpoints first.
	dlo, dhi := g.EdgeRange(dst)
	span := int(dhi-dlo) * graph.EdgeBytes
	lines := min((span+mem.LineSize-1)/mem.LineSize, s.p.ListLines)
	base := g.EdgeAddr(dlo)
	if lines > 0 {
		step := span / lines
		for i := 0; i < lines; i++ {
			buf = append(buf, base+uint64(i*step+step/2))
		}
	}
	return buf, true
}

// FuncProgram adapts a plain function to PrefetchProgram, the hook users
// reach for when their operator has a custom access pattern ("if users
// require a different graph access pattern, they can write a custom
// prefetch function", §5.3). The function receives the task and an emit
// callback; each emit(addrs...) call becomes one threadlet.
type FuncProgram struct {
	F func(t worklist.Task, emit func(addrs ...uint64))
}

// Start implements PrefetchProgram by running F eagerly and replaying its
// threadlets.
func (p *FuncProgram) Start(t worklist.Task) PrefetchStream {
	fs := &funcStream{}
	p.F(t, func(addrs ...uint64) {
		tl := make([]uint64, len(addrs))
		copy(tl, addrs)
		fs.threadlets = append(fs.threadlets, tl)
	})
	return fs
}

type funcStream struct {
	threadlets [][]uint64
	i          int
}

// Next implements PrefetchStream.
func (s *funcStream) Next(buf []uint64) ([]uint64, bool) {
	if s.i >= len(s.threadlets) {
		return buf, false
	}
	buf = append(buf, s.threadlets[s.i]...)
	s.i++
	return buf, true
}
