package service

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"minnow"
	"minnow/internal/service/cache"
	"minnow/internal/service/journal"
)

// BenchmarkRestart times one minnowd restart, New then Shutdown, over a
// journal and disk cache shaped like the svc-mixed workload's: 16 done
// jobs, 1,000 canceled while queued, and 40 more done, in the live
// record form, with a cache entry for each done job (all carrying one
// real run's summary and result, under distinct keys). One untimed
// restart compacts the journal first, so the timed ones are restarts
// with nothing new. Each checks the replay through Recovery's counts.
func BenchmarkRestart(b *testing.B) {
	const warm, canceled, cold = 16, 1000, 40
	dir := b.TempDir()
	cfg := Config{Shards: 2, CacheDir: filepath.Join(dir, "cache"), JournalPath: filepath.Join(dir, "journal.jsonl")}
	res, err := minnow.Run("SSSP", minnow.Config{Threads: 2, Minnow: true, Prefetch: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	resultJSON, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cache.NewDisk(cfg.CacheDir)
	if err != nil {
		b.Fatal(err)
	}
	jl, _, err := journal.Open(cfg.JournalPath)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= warm+canceled+cold; i++ {
		spec := ConfigSpec{Threads: 2, Minnow: true, Prefetch: true, Seed: uint64(i)}
		key, keyJSON := CacheKey("SSSP", spec.ToConfig())
		specJSON, err := json.Marshal(spec)
		if err != nil {
			b.Fatal(err)
		}
		id, at := fmt.Sprintf("j-%d", i), int64(i)*1e6
		recs := []journal.Record{{Op: journal.OpSubmit, ID: id, Bench: "SSSP", Key: key, Corr: "c-" + id, At: at, Spec: specJSON}}
		if i > warm && i <= warm+canceled {
			recs = append(recs, journal.Record{Op: journal.OpCanceled, ID: id, Error: "service: canceled by client", At: at + 1})
		} else {
			recs = append(recs,
				journal.Record{Op: journal.OpStart, ID: id, At: at + 1},
				journal.Record{Op: journal.OpDone, ID: id, Hash: res.SummaryHash, At: at + 2, StartAt: at + 1})
			e := &cache.Entry{Key: key, Bench: "SSSP", KeyJSON: keyJSON, SummaryHash: res.SummaryHash,
				Summary: res.SummaryJSON, Result: resultJSON}
			if err := c.Put(e); err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range recs {
			if err := jl.Append(r, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := jl.Close(); err != nil {
		b.Fatal(err)
	}

	restart := func() {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rec := s.Recovery(); rec != (RecoveryStats{Completed: warm + cold, Terminal: canceled}) {
			b.Fatalf("replay recovered %+v, want %d completed and %d terminal", rec, warm+cold, canceled)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	restart()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restart()
	}
}
