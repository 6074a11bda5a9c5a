package journal

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkOpen times one Open of a compacted journal shaped like the
// svc-mixed workload's after its open loop: 1,056 folded terminal
// records (16 warm done jobs, 1,000 canceled while queued, 40 cold done
// jobs) in the form the service's startup compaction writes. Each Open
// checks the record count and that every line decoded.
func BenchmarkOpen(b *testing.B) {
	const warm, canceled, cold = 16, 1000, 40
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	j, _, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	var recs []Record
	for i := 1; i <= warm+canceled+cold; i++ {
		id, at := fmt.Sprintf("j-%d", i), 1760000000000000000+int64(i)*1e6
		r := Record{Op: OpDone, ID: id, Bench: "SSSP", Key: fmt.Sprintf("%064x", i), At: at + 3e5,
			Corr: "c-" + id, StartAt: at + 1e5, SubmitAt: at, Cycles: 8345678, Hash: fmt.Sprintf("%016x", i)}
		if i > warm && i <= warm+canceled {
			r = Record{Op: OpCanceled, ID: id, Bench: "BFS", Key: r.Key, At: at + 1e3,
				Corr: r.Corr, SubmitAt: at, Error: "service: canceled by client"}
		}
		recs = append(recs, r)
	}
	if err := j.Rewrite(recs); err != nil {
		b.Fatal(err)
	}
	j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, got, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(recs) || !j.Intact() {
			b.Fatalf("Open read %d records (intact %v), want %d", len(got), j.Intact(), len(recs))
		}
		j.Close()
	}
}
