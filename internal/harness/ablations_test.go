package harness

import "testing"

// ablationOpts is the configuration of the ablation-direction tests.
func ablationOpts() FigOptions { return FigOptions{Threads: 8, Scale: 1, Quick: true} }

func TestAblationSocketsHelps(t *testing.T) {
	tb := figure(t, "ablation-sockets", ablationOpts())
	// 8-way sharding must beat a single lock on SSSP at 8 threads.
	if parseF(t, tb.Rows[0][3]) <= 1.0 {
		t.Fatalf("sharding did not help: %v", tb.Rows[0])
	}
}

func TestAblationSharedEnginesTradeoff(t *testing.T) {
	tb := figure(t, "ablation-sharing", ablationOpts())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
}
