package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"dex/internal/metrics"
	"dex/internal/server"
)

// runSmoke is `dexd smoke`, the end-to-end observability smoke test behind
// `make metrics-smoke`: it boots this binary as a child dexd on a free port
// with the slow-query ring armed, drives a short session through the HTTP
// client (including a cache hit and a traced query), then checks the three
// observability surfaces — the per-response span tree, /admin/slow, and
// /metrics as valid Prometheus text exposition — before shutting the
// server down with SIGTERM and verifying a clean exit.
//
// It prints "metrics smoke OK" on success and returns the first failure.
func runSmoke(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	bin, err := os.Executable()
	if err != nil {
		return err
	}

	// Reserve a free port, release it, and hand it to dexd. The race
	// window between Close and ListenAndServe is tolerable for a smoke
	// test on localhost.
	l, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()

	// -slowms 1 so ordinary queries land in the slow ring; -reqlog so the
	// structured request log path is exercised end to end.
	srv := exec.Command(bin,
		"-addr", addr,
		"-demo", "sales", "-rows", "200000",
		"-slowms", "1",
		"-reqlog",
	)
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return fmt.Errorf("start dexd: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	defer srv.Process.Kill()

	base := "http://" + addr
	cl := server.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Wait for the server to come up.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if _, err := cl.Tables(ctx); err == nil {
			break
		}
		select {
		case err := <-exited:
			return fmt.Errorf("dexd exited during startup: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dexd not healthy at %s within 5s", base)
		}
		time.Sleep(50 * time.Millisecond)
	}

	id, err := cl.CreateSession(ctx)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}

	// A repeated exact query (second run is a cache hit) plus a traced
	// group-by: together they touch the exact, cached, and traced paths.
	// The group-by has three keys so it runs on the generic sink, several
	// times -slowms even on a fast host, and so reaches the slow ring; the
	// typed single-key sink answers 200k rows in under a millisecond.
	for i := 0; i < 2; i++ {
		if _, err := cl.Query(ctx, id, server.QueryRequest{SQL: "SELECT COUNT(*) FROM sales"}); err != nil {
			return fmt.Errorf("exact query (run %d): %w", i+1, err)
		}
	}
	res, err := cl.Query(ctx, id, server.QueryRequest{
		SQL:   "SELECT region, product, quarter, AVG(amount) FROM sales GROUP BY region, product, quarter",
		Trace: true,
	})
	if err != nil {
		return fmt.Errorf("traced query: %w", err)
	}
	if res.Trace == nil {
		return errors.New("trace:true response carried no span tree")
	}
	if res.Trace.Name != "query" || len(res.Trace.Children) == 0 {
		return fmt.Errorf("malformed trace root: name=%q children=%d", res.Trace.Name, len(res.Trace.Children))
	}

	expo, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	if err := metrics.ValidateExposition(strings.NewReader(expo)); err != nil {
		return fmt.Errorf("/metrics exposition invalid: %w", err)
	}
	for _, want := range []string{
		`dex_queries_total{outcome="completed"}`,
		`dex_queries_total{outcome="cache_hit"}`,
		`dex_query_duration_seconds_bucket`,
	} {
		if !strings.Contains(expo, want) {
			return fmt.Errorf("/metrics missing expected series %s", want)
		}
	}

	slow, err := cl.Slow(ctx)
	if err != nil {
		return fmt.Errorf("fetch /admin/slow: %w", err)
	}
	if len(slow) == 0 {
		return errors.New("/admin/slow empty despite -slowms 1")
	}
	if slow[0].Trace == nil {
		return errors.New("slow ring entry has no trace")
	}

	if err := cl.EndSession(ctx, id); err != nil {
		return fmt.Errorf("end session: %w", err)
	}

	// SIGTERM must drain and exit cleanly.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal dexd: %w", err)
	}
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("dexd exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		return errors.New("dexd did not exit within 15s of SIGTERM")
	}

	fmt.Println("metrics smoke OK")
	return nil
}
