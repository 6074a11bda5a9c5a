// Package uops defines the micro-op intermediate representation that
// benchmark operators emit and the core timing model consumes.
//
// The simulator does not decode x86; instead each Galois operator (and
// each software worklist operation) emits the loads, stores, atomics,
// branches and compute work it would perform, with the data-dependent
// parts (addresses, branch outcomes) taken from the *actual* algorithm
// execution. This keeps the timing model honest about the properties the
// paper's experiments measure: memory-level parallelism, serialization at
// atomics, and branch mispredictions on data-dependent branches.
//
// Determinism contract: a Trace is plain data — replaying the same op
// sequence through the core model is what makes cycle counts reproducible,
// so emitters must derive any data-dependent content (addresses, branch
// outcomes) from deterministic algorithm state.
package uops

// Kind is the micro-op class.
type Kind uint8

const (
	// Compute represents N single-cycle ALU ops.
	Compute Kind = iota
	// Load is a data-cache read.
	Load
	// Store is a data-cache write.
	Store
	// Atomic is a read-modify-write; under x86-TSO it acts as a full
	// fence (§3.3 of the paper).
	Atomic
	// Branch is a conditional branch whose outcome the kernel computed.
	Branch
)

// UOp is one micro-operation.
type UOp struct {
	// Addr is the simulated byte address for memory ops.
	Addr uint64
	// PC identifies the static branch site (Branch) for the TAGE
	// predictor.
	PC uint64
	// N is the op count for Compute (>= 1).
	N uint16
	// Kind follows N so that it and the flags below share N's word:
	// UOp packs into 24 bytes, not 32, and the per-worker traces hold
	// many of them.
	Kind Kind
	// Taken is the branch outcome (Branch).
	Taken bool
	// Delinquent marks first accesses to task/node/edge data (the
	// paper's delinquent-load definition, §3.4).
	Delinquent bool
	// DepLoad marks a load whose address depends on the value returned
	// by the most recent preceding load (the A[B[i]] pattern); it cannot
	// issue until that load completes.
	DepLoad bool
	// DepBranch marks a branch whose condition depends on the most
	// recent preceding load.
	DepBranch bool
}

// Trace is a reusable micro-op buffer. Operators append into it; the core
// drains it.
type Trace struct {
	Ops []UOp
}

// Reset empties the trace, retaining capacity.
func (t *Trace) Reset() { t.Ops = t.Ops[:0] }

// Compute appends n ALU ops.
func (t *Trace) Compute(n int) {
	for n > 0 {
		chunk := n
		if chunk > 1<<15 {
			chunk = 1 << 15
		}
		t.Ops = append(t.Ops, UOp{Kind: Compute, N: uint16(chunk)})
		n -= chunk
	}
}

// Load appends a demand load.
func (t *Trace) Load(addr uint64, delinquent, depLoad bool) {
	t.Ops = append(t.Ops, UOp{Kind: Load, Addr: addr, Delinquent: delinquent, DepLoad: depLoad})
}

// LoadPC appends a demand load tagged with its static load site, which
// PC-indexed hardware prefetchers (stride, IMP) train on.
func (t *Trace) LoadPC(pc, addr uint64, delinquent, depLoad bool) {
	t.Ops = append(t.Ops, UOp{Kind: Load, PC: pc, Addr: addr, Delinquent: delinquent, DepLoad: depLoad})
}

// Store appends a demand store.
func (t *Trace) Store(addr uint64) {
	t.Ops = append(t.Ops, UOp{Kind: Store, Addr: addr})
}

// Atomic appends a read-modify-write.
func (t *Trace) Atomic(addr uint64) {
	t.Ops = append(t.Ops, UOp{Kind: Atomic, Addr: addr})
}

// Branch appends a conditional branch with its computed outcome.
func (t *Trace) Branch(pc uint64, taken, depLoad bool) {
	t.Ops = append(t.Ops, UOp{Kind: Branch, PC: pc, Taken: taken, DepBranch: depLoad})
}

// Instrs returns the instruction count the trace represents.
func (t *Trace) Instrs() int64 {
	var n int64
	for i := range t.Ops {
		if t.Ops[i].Kind == Compute {
			n += int64(t.Ops[i].N)
		} else {
			n++
		}
	}
	return n
}
