package server

import (
	"context"
	"testing"

	"dex/internal/exec"
)

// TestRunLoadClassifiesShedding: a load run against a healthy server
// completes every query; against a draining one, session creation is
// refused with 503 and the run must report every client as shed (rejected
// once, all of its queries dropped) instead of failing outright.
func TestRunLoadClassifiesShedding(t *testing.T) {
	const clients, queries = 3, 4
	for _, tc := range []struct {
		name                         string
		drain                        bool
		completed, rejected, dropped int64
	}{
		{name: "healthy", completed: clients * queries},
		{name: "draining", drain: true, rejected: clients, dropped: clients * queries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, cl, srv, _ := newTestService(t, 2_000, Config{}, exec.ExecOptions{Parallelism: 1})
			if tc.drain {
				if err := srv.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := RunLoad(context.Background(), cl, LoadConfig{Clients: clients, QueriesPerClient: queries, Seed: 1})
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			if rep.Queries != tc.completed || rep.Rejected != tc.rejected || rep.Dropped != tc.dropped || rep.Failed != 0 {
				t.Fatalf("report = %+v, want completed=%d rejected=%d dropped=%d failed=0",
					rep, tc.completed, tc.rejected, tc.dropped)
			}
		})
	}
}
