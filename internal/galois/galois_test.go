package galois

import (
	"testing"

	"minnow/internal/cpu"
	"minnow/internal/graph"
	"minnow/internal/mem"
	"minnow/internal/obs"
	"minnow/internal/sim"
	"minnow/internal/worklist"
)

// countOp is a trivial operator: count applications and optionally fan
// out children.
type countOp struct {
	applied  []int32
	children func(t worklist.Task) []int32
}

func (o *countOp) Apply(w *Worker, t worklist.Task) {
	o.applied = append(o.applied, t.Node)
	w.TR().Compute(10)
	if o.children != nil {
		for _, c := range o.children(t) {
			w.Push(t.Priority+1, c)
		}
	}
}

func env(threads int) ([]*cpu.Core, *graph.AddrSpace) {
	mcfg := mem.DefaultConfig(threads)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	cores := make([]*cpu.Core, threads)
	for i := range cores {
		cores[i] = cpu.New(i, cpu.DefaultConfig(), msys)
	}
	as := graph.NewAddrSpace()
	return cores, as
}

func runToCompletion(t *testing.T, r *Runner) {
	t.Helper()
	eng := sim.NewEngine()
	for _, w := range r.Workers() {
		id := eng.Register(w)
		eng.Wake(id, 0)
	}
	if _, drained := eng.Run(50_000_000); !drained {
		t.Fatal("framework did not terminate")
	}
}

func TestForEachRunsAllTasks(t *testing.T) {
	cores, as := env(2)
	op := &countOp{}
	r := NewRunner(Config{Threads: 2}, cores, &SWScheduler{WL: worklist.NewFIFO(as, 2)}, op, nil)
	var seed []worklist.Task
	for i := int32(0); i < 50; i++ {
		seed = append(seed, worklist.Task{Node: i, EdgeHi: -1})
	}
	r.Seed(seed)
	runToCompletion(t, r)
	if len(op.applied) != 50 {
		t.Fatalf("applied %d of 50", len(op.applied))
	}
	if r.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", r.Outstanding())
	}
	if r.Applied() != 50 {
		t.Fatalf("Applied() = %d", r.Applied())
	}
}

func TestDynamicTaskGeneration(t *testing.T) {
	cores, as := env(2)
	// Binary fan-out three levels deep from one seed: 1+2+4+8 = 15.
	op := &countOp{}
	op.children = func(tk worklist.Task) []int32 {
		if tk.Priority >= 3 {
			return nil
		}
		return []int32{tk.Node * 2, tk.Node*2 + 1}
	}
	r := NewRunner(Config{Threads: 2}, cores, &SWScheduler{WL: worklist.NewFIFO(as, 2)}, op, nil)
	r.Seed([]worklist.Task{{Node: 1, EdgeHi: -1}})
	runToCompletion(t, r)
	if len(op.applied) != 15 {
		t.Fatalf("applied %d of 15", len(op.applied))
	}
}

func TestWorkBudgetTimeout(t *testing.T) {
	cores, as := env(1)
	// Infinite generator.
	op := &countOp{}
	op.children = func(tk worklist.Task) []int32 { return []int32{tk.Node} }
	r := NewRunner(Config{Threads: 1, WorkBudget: 100}, cores, &SWScheduler{WL: worklist.NewFIFO(as, 1)}, op, nil)
	r.Seed([]worklist.Task{{Node: 0, EdgeHi: -1}})
	runToCompletion(t, r)
	if !r.TimedOut() {
		t.Fatal("budget did not trip")
	}
	if r.Applied() != 100 {
		t.Fatalf("applied %d, want exactly the budget", r.Applied())
	}
}

func TestTaskSplitting(t *testing.T) {
	cores, as := env(1)
	degrees := func(n int32) int32 {
		if n == 7 {
			return 100
		}
		return 3
	}
	var got []worklist.Task
	op := &splitRecorder{tasks: &got}
	r := NewRunner(Config{Threads: 1, SplitThreshold: 32}, cores, &SWScheduler{WL: worklist.NewFIFO(as, 1)}, op, degrees)
	r.Seed([]worklist.Task{{Node: 7, EdgeHi: -1}, {Node: 3, EdgeHi: -1}})
	runToCompletion(t, r)
	// Node 7 (degree 100, threshold 32) splits into 4 subtasks; node 3
	// stays whole.
	var splits, whole int
	var covered int32
	for _, tk := range got {
		if tk.Node == 7 {
			splits++
			if tk.WholeNode() {
				t.Fatal("hub task not split")
			}
			covered += tk.EdgeHi - tk.EdgeLo
		} else {
			whole++
			if !tk.WholeNode() {
				t.Fatal("small task split")
			}
		}
	}
	if splits != 4 || covered != 100 {
		t.Fatalf("splits %d covering %d edges", splits, covered)
	}
	if whole != 1 {
		t.Fatalf("whole tasks %d", whole)
	}
}

type splitRecorder struct{ tasks *[]worklist.Task }

func (o *splitRecorder) Apply(w *Worker, t worklist.Task) {
	*o.tasks = append(*o.tasks, t)
	w.TR().Compute(5)
}

func TestSeedRoundRobin(t *testing.T) {
	cores, as := env(4)
	op := &countOp{}
	r := NewRunner(Config{Threads: 4}, cores, &SWScheduler{WL: worklist.NewFIFO(as, 4)}, op, nil)
	var seed []worklist.Task
	for i := int32(0); i < 40; i++ {
		seed = append(seed, worklist.Task{Node: i, EdgeHi: -1})
	}
	r.Seed(seed)
	// Every core should have been charged some enqueue work.
	for i, c := range cores {
		if c.Stat.EnqOps == 0 {
			t.Fatalf("core %d got no seed pushes", i)
		}
	}
	runToCompletion(t, r)
}

func TestOpStatsAccounting(t *testing.T) {
	cores, as := env(1)
	op := &countOp{}
	r := NewRunner(Config{Threads: 1}, cores, &SWScheduler{WL: worklist.NewFIFO(as, 1)}, op, nil)
	r.Seed([]worklist.Task{{Node: 0, EdgeHi: -1}, {Node: 1, EdgeHi: -1}})
	runToCompletion(t, r)
	st := cores[0].Stat
	if st.EnqOps != 2 || st.DeqOps != 2 {
		t.Fatalf("enq %d deq %d", st.EnqOps, st.DeqOps)
	}
	if st.DeqCycles <= 0 || st.EnqCycles <= 0 {
		t.Fatal("op cycles not measured")
	}
	if st.TasksRun != 2 {
		t.Fatalf("tasks %d", st.TasksRun)
	}
}

// TestWorkerHorizon pins the horizon contract: a worker always weaves,
// except for a deferred idle backoff under SharedHorizons, which is
// private up to its wake-up cycle unless a timeline (shared across
// tracks) is attached to the core.
func TestWorkerHorizon(t *testing.T) {
	cores, as := env(1)
	r := NewRunner(Config{Threads: 1, SharedHorizons: true}, cores, &SWScheduler{WL: worklist.NewFIFO(as, 1)}, &countOp{}, nil)
	w := r.Workers()[0]
	if h := w.Horizon(); h != sim.HorizonAlwaysWeave {
		t.Fatalf("fresh worker horizon %d, want HorizonAlwaysWeave", h)
	}
	// An empty worklist with work still outstanding elsewhere: the pop
	// fails and the worker defers its idle backoff to the next step.
	r.outstanding = 1
	if _, done := w.Step(); done {
		t.Fatal("worker retired with work outstanding")
	}
	want := w.Core.Now() + r.cfg.IdleBackoff
	if h := w.Horizon(); h != want {
		t.Fatalf("idle-pending horizon %d, want idleUntil %d", h, want)
	}
	w.Core.TL = obs.NewTimeline()
	if h := w.Horizon(); h != sim.HorizonAlwaysWeave {
		t.Fatalf("idle-pending horizon with timeline %d, want HorizonAlwaysWeave", h)
	}
}
