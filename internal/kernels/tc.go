package kernels

import (
	"fmt"

	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/worklist"
)

// TC is node-iterator-hashed triangle counting (Schank '07, §6.1): one
// task per node u enumerates neighbor pairs (v, w) with u < v < w and
// binary-searches w in v's sorted adjacency list. TC neither generates new
// work nor benefits from priority ordering, and needs no atomics — the
// paper's least-bottlenecked benchmark, included to bound Minnow's minimum
// benefit. Its CSR uses 64B node records (hash-index metadata).
type TC struct {
	g      *graph.Graph
	counts []int64 // per-core triangle counters
	total  int64
	stacks []uint64
}

// NewTC builds the kernel.
func NewTC(g *graph.Graph, as *graph.AddrSpace, cores int) *TC {
	return &TC{g: g, counts: make([]int64, cores), stacks: allocStacks(as, cores)}
}

// Graph implements Kernel.
func (k *TC) Graph() *graph.Graph { return k.g }

// InitialTasks implements Kernel: one task per node, no priorities.
func (k *TC) InitialTasks() []worklist.Task {
	ts := make([]worklist.Task, k.g.N)
	for i := range ts {
		ts[i] = worklist.Task{Priority: 0, Node: int32(i), EdgeHi: -1}
	}
	return ts
}

// Triangles returns the computed triangle count.
func (k *TC) Triangles() int64 {
	if k.total == 0 {
		for _, c := range k.counts {
			k.total += c
		}
	}
	return k.total
}

const (
	tcPCPairGT = iota + 1
	tcPCSearch
	tcPCFound
)

// Apply implements the operator.
func (k *TC) Apply(w *galois.Worker, t worklist.Task) {
	e := newEmitter(w, k.g, k.stacks, pcBase(5))
	g := k.g
	u := t.Node

	e.locals(3, 1, 14)
	e.loadNode(u, false)

	lo, hi := taskRange(g, t)
	for i := lo; i < hi; i++ {
		v := g.Dests[i]
		e.locals(4, 1, 12)
		e.loadEdge(i)
		ok := v > u
		e.branch(pcBase(5)+tcPCPairGT, ok, true)
		if !ok {
			continue
		}
		e.loadNode(v, true)
		for j := i + 1; j < hi; j++ {
			x := g.Dests[j]
			e.locals(3, 0, 8)
			e.loadEdge(j)
			// Binary search for x in v's adjacency list.
			found := k.searchEmit(&e, v, x)
			e.branch(pcBase(5)+tcPCFound, found, true)
			if found {
				k.counts[w.Core.ID]++
				e.locals(1, 1, 4)
			}
		}
	}
	e.locals(2, 1, 8)
}

// searchEmit binary-searches x in v's sorted adjacency list, emitting the
// dependent loads of each probe.
func (k *TC) searchEmit(e *emitter, v, x int32) bool {
	g := k.g
	lo, hi := g.EdgeRange(v)
	for lo < hi {
		mid := (lo + hi) / 2
		e.w.TR().LoadPC(e.pcb+pcLoadSearch, g.EdgeAddr(mid), true, true)
		e.locals(1, 0, 6)
		d := g.Dests[mid]
		e.branch(pcBase(5)+tcPCSearch, d < x, true)
		switch {
		case d == x:
			return true
		case d < x:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// Verify implements Kernel: the count must equal graph.Triangles.
func (k *TC) Verify() error {
	if got, want := k.Triangles(), k.g.Triangles(); got != want {
		return fmt.Errorf("tc: counted %d triangles, want %d", got, want)
	}
	return nil
}
