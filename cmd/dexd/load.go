package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"time"

	"dex/internal/idebench"
	"dex/internal/server"
)

// runLoad is `dexd load`: the IDEBench session driver (internal/idebench)
// against a dexd at -addr, or against an in-process server over a fresh
// -rows sales table when -addr is empty. A remote dexd must already serve
// the sales table (dexd -demo sales). It prints the scored report as JSON
// and fails when any query hit a transport error, failed outright or could
// not be classified.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("dexd load", flag.ExitOnError)
	rf := runFlags{seed: 1, rows: 200_000, users: 4, ops: 12, mode: "exact", timeout: 250 * time.Millisecond}
	rf.register(fs)
	addr := fs.String("addr", "", "dexd base URL (empty = in-process server)")
	think := fs.Float64("think", 1, "think-time multiplier (0 = closed loop)")
	fs.Parse(args)

	base := *addr
	if base == "" {
		l, err := idebench.StartLocal(idebench.LocalConfig{Rows: rf.rows, Seed: rf.seed})
		if err != nil {
			return err
		}
		defer l.Close()
		base = l.URL
	}
	cl := server.NewClient(base)
	// Shed queries retry after the server's Retry-After hint, so a shed
	// counts only once the retries are spent.
	cl.Retry = &server.RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * time.Millisecond, Seed: rf.seed}
	rep, err := idebench.Run(context.Background(), cl, idebench.Config{
		Users:      rf.users,
		Seed:       rf.seed,
		Mode:       rf.mode,
		Deadline:   rf.timeout,
		ThinkScale: *think,
		User:       idebench.UserConfig{Ops: rf.ops},
	})
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", buf)
	// Transport errors and server-side failures are different diagnoses:
	// the former means the network or process is flapping, the latter that
	// the workload or server is broken. Report them apart.
	if rep.Transport > 0 {
		return fmt.Errorf("%d queries hit transport errors — is dexd up at %s?", rep.Transport, base)
	}
	if rep.Failed > 0 || rep.Unclassified > 0 {
		return fmt.Errorf("%d queries failed, %d unclassified", rep.Failed, rep.Unclassified)
	}
	return nil
}
