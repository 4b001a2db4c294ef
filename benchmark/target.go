package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/server"
	"dex/internal/shard"
	"dex/internal/storage"
	datagen "dex/internal/workload"
)

// engineOptions is the dexd default configuration.
func engineOptions(seed int64) core.Options {
	return core.Options{
		Seed:    seed,
		Degrade: true,
		Exec:    exec.ExecOptions{ZoneMap: true, Kernels: true, AggKernels: true},
	}
}

// A target is the state a workload's rounds share: the generated table,
// its encoded form and, for the fleet workload, the running workers. What
// queries mutate (result cache, crack indexes, engine RNG) lives in a
// service, which every round builds afresh.
type target struct {
	w       workload
	seed    int64
	plain   *storage.Table // the oracle's input; dropped once it has answered
	enc     *storage.Table
	fleet   *shard.LocalFleet
	encodeS float64
}

// newTarget generates and encodes the table and, for a fleet workload,
// boots the workers (which generate and partition the same seeded table
// themselves: rows never cross the wire at load).
func newTarget(w workload, seed int64) (*target, error) {
	plain, err := datagen.Sales(rand.New(rand.NewSource(seed)), w.rows)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	enc, _, err := storage.EncodeTable(plain, storage.EncodeOptions{})
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	t := &target{w: w, seed: seed, plain: plain, enc: enc, encodeS: time.Since(t0).Seconds()}
	if w.shards > 0 {
		t.fleet, err = shard.StartLocalFleet(context.Background(), shard.FleetConfig{
			Shards: w.shards, Rows: w.rows, Seed: seed, Scheme: shard.Hash,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	return t, nil
}

func (t *target) close() {
	if t.fleet != nil {
		t.fleet.Close()
	}
}

// newEngine returns a fresh engine over the shared encoded table: no crack
// index, no samples, the RNG back at the seed. The table is registered
// as encoded, so Options.Encode stays off and no round re-encodes it.
func (t *target) newEngine() (*core.Engine, error) {
	eng := core.New(engineOptions(t.seed))
	if t.fleet != nil {
		return eng, nil // every sales query is routed to the fleet
	}
	if err := eng.Register(t.enc); err != nil {
		return nil, err
	}
	return eng, nil
}

// A service is one round's fresh engine and server behind a loopback
// listener, plus the client that drives it.
type service struct {
	eng     *core.Engine
	srv     *server.Server
	httpSrv *http.Server
	client  *server.Client
	bytes   atomic.Int64 // response body bytes the client has read
}

// newServer returns a fresh engine behind a fresh server: empty result
// cache, empty admission queue, tracing off (no slow-query ring).
func (t *target) newServer() (*core.Engine, *server.Server, error) {
	eng, err := t.newEngine()
	if err != nil {
		return nil, nil, err
	}
	cfg := server.Config{CacheRows: t.w.cache}
	if t.fleet != nil {
		cfg.Shard = t.fleet.Coord
	}
	return eng, server.New(eng, cfg), nil
}

func (t *target) newService() (*service, error) {
	eng, srv, err := t.newServer()
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{eng: eng, srv: srv}
	s.httpSrv = &http.Server{Handler: s.srv}
	go s.httpSrv.Serve(lis) // returns when close() closes the server
	s.client = server.NewClient("http://" + lis.Addr().String())
	s.client.HTTP = &http.Client{Transport: &countingTransport{base: &http.Transport{}, n: &s.bytes}}
	return s, nil
}

func (s *service) close() {
	s.client.HTTP.Transport.(*countingTransport).base.CloseIdleConnections()
	s.httpSrv.Close()
}

// countingTransport counts the response body bytes that pass through it.
type countingTransport struct {
	base *http.Transport
	n    *atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
