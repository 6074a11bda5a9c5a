// service is the minnowd quickstart: it starts an in-process
// simulation service, submits the same configuration twice over real
// HTTP, and shows the second submission being served from the
// content-addressed result cache with a byte-identical summary — no
// second simulation runs. The same flow, through service.Client, works
// against a standalone `minnowd` binary; see docs/SERVICE.md for the
// full API.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"minnow/internal/service"
)

func main() {
	// One worker shard keeps the demo serial; production servers let
	// SplitBudget size the pool against the machine.
	s, err := service.New(service.Config{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	addr, stop, err := s.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop() //nolint:errcheck // demo teardown
	c := service.NewClient("http://"+addr, nil)
	fmt.Println("minnowd serving on", addr)

	spec := service.JobSpec{
		Bench:  "SSSP",
		Config: service.ConfigSpec{Threads: 1, Minnow: true, Prefetch: true},
	}

	// First submission: a cache miss — the job queues and simulates.
	first := submitAndWait(c, spec)
	fmt.Printf("first  submission: cached=%-5v status=%s hash=%s...\n", first.Cached, first.Status, first.SummaryHash[:12])

	// Second submission of the identical config: served from the cache,
	// done before the POST even returns.
	second := submitAndWait(c, spec)
	fmt.Printf("second submission: cached=%-5v status=%s hash=%s...\n", second.Cached, second.Status, second.SummaryHash[:12])

	fmt.Println("hashes identical:", first.SummaryHash == second.SummaryHash)
	fmt.Println("summaries byte-identical:", bytes.Equal(first.Summary, second.Summary))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
}

// submitAndWait submits one job and follows its event stream to the
// terminal view.
func submitAndWait(c *service.Client, spec service.JobSpec) service.JobView {
	v, err := c.Submit(context.Background(), spec, "")
	if err != nil {
		log.Fatal(err)
	}
	if v, err = c.Wait(context.Background(), v.ID, nil); err != nil {
		log.Fatal(err)
	}
	return v
}
