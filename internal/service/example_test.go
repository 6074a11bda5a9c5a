package service_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"minnow/internal/service"
)

// ExampleServer submits the same configuration twice and shows the
// second submission served from the content-addressed cache: no second
// simulation runs, and the stored summary comes back byte-identical.
// (The hashes themselves vary with simulator evolution, so the example
// asserts their equality rather than their value.)
func ExampleServer() {
	s, err := service.New(service.Config{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	spec := service.JobSpec{
		Bench:  "SSSP",
		Config: service.ConfigSpec{Threads: 1, Minnow: true, Prefetch: true},
	}

	first, err := s.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	for !service.Terminal(first.Status) {
		time.Sleep(50 * time.Millisecond)
		first, _ = s.Job(first.ID, false)
	}

	second, err := s.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("first cached:", first.Cached)
	fmt.Println("second cached:", second.Cached)
	fmt.Println("same hash:", first.SummaryHash == second.SummaryHash)
	fmt.Println("byte-identical summary:", bytes.Equal(first.Summary, second.Summary))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	// Output:
	// first cached: false
	// second cached: true
	// same hash: true
	// byte-identical summary: true
}
