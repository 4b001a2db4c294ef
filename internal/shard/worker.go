package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dex/internal/core"
	"dex/internal/fault"
	"dex/internal/protocol"
	"dex/internal/storage"
	"dex/internal/workload"
)

// fpExec injects worker-side execution faults: error policies fail the
// query on the shard (the coordinator sees CodeInternal and retries),
// latency policies make a slow shard.
var fpExec = fault.Register("shard/exec")

// Worker is one shard: a full dex engine over its partition of each
// table, serving the framed protocol on a TCP listener. A worker starts
// empty; the coordinator stages source tables (Load) and assigns the
// partition to keep (Partition) — rows are never shipped, each worker
// rebuilds the same seeded source and keeps its own slice.
type Worker struct {
	eng *core.Engine

	mu     sync.Mutex
	staged map[string]*storage.Table
	shard  int
	conns  map[*protocol.Conn]context.CancelFunc
	closed bool

	lis net.Listener
	wg  sync.WaitGroup
}

// NewWorker builds an empty worker around a seeded engine. Degradation
// stays off on workers: the fleet-level contract (partial results with a
// coverage fraction) lives at the coordinator, and a silently sampled
// shard partial would corrupt an exact merge. Everything else is the
// engine dexd runs: partitions are encoded as they are registered, and
// the pipeline's counters feed the Stats probe.
func NewWorker(seed int64) *Worker {
	return &Worker{
		eng:    core.New(core.Options{Seed: seed}),
		staged: map[string]*storage.Table{},
		shard:  -1,
		conns:  map[*protocol.Conn]context.CancelFunc{},
	}
}

// Engine exposes the worker's engine (tests register tables directly).
func (w *Worker) Engine() *core.Engine { return w.eng }

// Serve accepts connections until the listener closes. Each connection
// gets its own reader goroutine; queries on a connection run in per-query
// goroutines so a slow query never blocks a Cancel frame behind it.
func (w *Worker) Serve(lis net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("shard: worker closed")
	}
	w.lis = lis
	w.mu.Unlock()
	for {
		nc, err := lis.Accept()
		if err != nil {
			return err
		}
		conn := protocol.NewConn(nc)
		ctx, cancel := context.WithCancel(context.Background())
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			cancel()
			conn.Close()
			return errors.New("shard: worker closed")
		}
		w.conns[conn] = cancel
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.serveConn(ctx, conn)
			cancel()
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
		}()
	}
}

// Start serves on lis in a background goroutine.
func (w *Worker) Start(lis net.Listener) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.Serve(lis)
	}()
}

// Close stops the listener, cancels every in-flight query and waits for
// the connection handlers to drain.
func (w *Worker) Close() {
	w.mu.Lock()
	w.closed = true
	lis := w.lis
	for conn, cancel := range w.conns {
		cancel()
		conn.Close()
	}
	w.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	w.wg.Wait()
}

// serveConn runs one connection's reader loop. connCtx is cancelled when
// the worker closes, which aborts the connection's in-flight queries.
func (w *Worker) serveConn(connCtx context.Context, conn *protocol.Conn) {
	defer conn.Close()
	// inflight maps query IDs to their cancel funcs for MsgCancel.
	var mu sync.Mutex
	inflight := map[uint64]context.CancelFunc{}
	var qwg sync.WaitGroup
	defer qwg.Wait()
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return // peer gone or worker closing
		}
		switch typ {
		case protocol.MsgHello:
			var m protocol.Hello
			if err := json.Unmarshal(payload, &m); err != nil {
				w.sendErr(conn, 0, protocol.CodeBadQuery, "malformed hello: "+err.Error())
				return
			}
			if m.Version != protocol.Version {
				w.sendErr(conn, m.ID, protocol.CodeInternal,
					fmt.Sprintf("protocol version mismatch: worker %d, coordinator %d", protocol.Version, m.Version))
				return
			}
			w.mu.Lock()
			shard := w.shard
			w.mu.Unlock()
			conn.Send(protocol.MsgHelloAck, protocol.HelloAck{
				ID: m.ID, Version: protocol.Version, Shard: shard, Tables: w.eng.Tables(),
			})
		case protocol.MsgPing:
			var m protocol.Ping
			if json.Unmarshal(payload, &m) == nil {
				conn.Send(protocol.MsgPong, protocol.Pong{ID: m.ID})
			}
		case protocol.MsgStats:
			var m protocol.Stats
			if json.Unmarshal(payload, &m) == nil {
				conn.Send(protocol.MsgStatsAck, w.stats(m.ID))
			}
		case protocol.MsgLoad:
			var m protocol.Load
			if err := json.Unmarshal(payload, &m); err != nil {
				w.sendErr(conn, 0, protocol.CodeBadQuery, "malformed load: "+err.Error())
				continue
			}
			rows, err := w.handleLoad(m)
			if err != nil {
				w.sendErr(conn, m.ID, protocol.CodeBadQuery, err.Error())
				continue
			}
			conn.Send(protocol.MsgResult, protocol.Result{ID: m.ID, Rows: rows})
		case protocol.MsgPartition:
			var m protocol.Partition
			if err := json.Unmarshal(payload, &m); err != nil {
				w.sendErr(conn, 0, protocol.CodeBadQuery, "malformed partition: "+err.Error())
				continue
			}
			kept, schema, err := w.handlePartition(m)
			if err != nil {
				w.sendErr(conn, m.ID, protocol.CodeBadQuery, err.Error())
				continue
			}
			conn.Send(protocol.MsgResult, protocol.Result{ID: m.ID, Rows: kept, Table: schema})
		case protocol.MsgQuery:
			var m protocol.Query
			if err := json.Unmarshal(payload, &m); err != nil {
				w.sendErr(conn, 0, protocol.CodeBadQuery, "malformed query: "+err.Error())
				continue
			}
			qctx, qcancel := context.WithCancel(connCtx)
			mu.Lock()
			inflight[m.ID] = qcancel
			mu.Unlock()
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				w.handleQuery(qctx, conn, m)
				qcancel()
				mu.Lock()
				delete(inflight, m.ID)
				mu.Unlock()
			}()
		case protocol.MsgCancel:
			var m protocol.Cancel
			if json.Unmarshal(payload, &m) == nil {
				mu.Lock()
				if cancel, ok := inflight[m.ID]; ok {
					cancel()
				}
				mu.Unlock()
			}
		default:
			w.sendErr(conn, 0, protocol.CodeBadQuery, fmt.Sprintf("unknown message type %d", typ))
		}
	}
}

func (w *Worker) sendErr(conn *protocol.Conn, id uint64, code, msg string) {
	conn.Send(protocol.MsgError, protocol.ErrorMsg{ID: id, Code: code, Msg: msg})
}

// handleLoad stages a source table from a demo generator or a CSV path.
func (w *Worker) handleLoad(m protocol.Load) (int64, error) {
	if m.Name == "" {
		return 0, errors.New("load needs a table name")
	}
	var (
		t   *storage.Table
		err error
	)
	switch {
	case m.Path != "":
		t, err = storage.ReadCSVFile(m.Name, m.Path)
	default:
		rows := m.Rows
		if rows <= 0 {
			rows = 100_000
		}
		t, err = workload.Demo(m.Kind, rand.New(rand.NewSource(m.Seed)), rows)
	}
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	w.staged[m.Name] = t
	w.mu.Unlock()
	return int64(t.NumRows()), nil
}

// handlePartition keeps this worker's slice of a staged table and
// registers it for queries as a new version of the table, which builds
// its own crack indexes and samples; queries still running on the old
// slice finish there. The source is dropped once the slice is cut: a
// worker holds only what it serves, so every Partition follows its own
// Load (the healer's stage sends both). The reply carries a zero-row
// table so the coordinator learns the schema without shipping rows. When a Range spec
// arrives without bounds, the worker derives equi-depth bounds itself —
// every worker stages the identical seeded source, so they all derive the
// identical split points.
func (w *Worker) handlePartition(m protocol.Partition) (int64, protocol.WireTable, error) {
	var none protocol.WireTable
	scheme, err := ParseScheme(m.Scheme)
	if err != nil {
		return 0, none, err
	}
	if m.Index < 0 || m.Index >= m.Count {
		return 0, none, fmt.Errorf("partition index %d out of range [0,%d)", m.Index, m.Count)
	}
	owned := m.Owned
	if len(owned) == 0 {
		owned = []int{m.Index}
	}
	own := make(map[int]bool, len(owned))
	for _, ix := range owned {
		if ix < 0 || ix >= m.Count {
			return 0, none, fmt.Errorf("owned partition %d out of range [0,%d)", ix, m.Count)
		}
		own[ix] = true
	}
	w.mu.Lock()
	src, ok := w.staged[m.Table]
	w.mu.Unlock()
	if !ok {
		return 0, none, fmt.Errorf("table %q not staged (send Load first)", m.Table)
	}
	col, err := src.ColumnByName(m.Column)
	if err != nil {
		return 0, none, err
	}
	if scheme == Range && col.Type() == storage.TString {
		return 0, none, fmt.Errorf("range partitioning needs a numeric column, %q is TEXT", m.Column)
	}
	bounds := m.Bounds
	if scheme == Range && len(bounds) == 0 {
		bounds = EquiDepthBounds(col, m.Count)
	}
	spec := Spec{Table: m.Table, Column: m.Column, Scheme: scheme, Shards: m.Count, Bounds: bounds}
	if err := spec.Validate(); err != nil {
		return 0, none, err
	}
	var sel []int
	for i := 0; i < col.Len(); i++ {
		if own[spec.ShardOf(col.Value(i))] {
			sel = append(sel, i)
		}
	}
	part := src.Gather(sel)
	w.eng.Replace(part)
	w.mu.Lock()
	delete(w.staged, m.Table)
	w.shard = m.Index
	w.mu.Unlock()
	return int64(len(sel)), protocol.FromTable(src.Gather(nil)), nil
}

// stats snapshots the worker's engine counters for a Stats probe: the
// engine's in-memory tables — its partitions — with their row counts,
// what the healer compares against the placement map, plus the shard-local
// scan/crack/index counters the coordinator's stats section surfaces.
func (w *Worker) stats(id uint64) protocol.WorkerStats {
	w.mu.Lock()
	shard := w.shard
	w.mu.Unlock()
	st := protocol.WorkerStats{
		ID:           id,
		Shard:        shard,
		RowsScanned:  w.eng.RowsScanned(),
		ZoneSkipped:  w.eng.ZoneSkipped(),
		IndexMorsels: w.eng.IndexMorsels(),
		CellQueries:  w.eng.CellQueries(),
	}
	for _, name := range w.eng.Tables() {
		if rows, ok := w.eng.TableRows(name); ok {
			st.Tables = append(st.Tables, protocol.TableStat{Name: name, Rows: rows})
		}
	}
	for _, ci := range w.eng.CrackIndexes() {
		st.Cracks = append(st.Cracks, protocol.CrackStat{
			Table: ci.Table, Column: ci.Column, Pieces: ci.Pieces, Cracks: int64(ci.Cracks),
		})
	}
	return st
}

// handleQuery executes one pushed query and replies with the partial
// result or a coded error. The shard/exec failpoint sits ahead of the
// engine so chaos schedules can fail or slow exactly this seam.
func (w *Worker) handleQuery(ctx context.Context, conn *protocol.Conn, m protocol.Query) {
	if m.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(m.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	if err := fpExec.Hit(); err != nil {
		w.sendErr(conn, m.ID, protocol.CodeInternal, err.Error())
		return
	}
	mode, err := core.ParseMode(m.Mode)
	if err != nil {
		w.sendErr(conn, m.ID, protocol.CodeBadQuery, err.Error())
		return
	}
	q, err := m.Query.ToQuery()
	if err != nil {
		w.sendErr(conn, m.ID, protocol.CodeBadQuery, err.Error())
		return
	}
	// The sampling modes cannot estimate over an empty partition (there
	// is nothing to sample); an empty shard contributes nothing to a
	// merged estimate, so reply with an empty partial instead of an
	// error the coordinator would mistake for a query defect.
	if mode == core.Approx || mode == core.Online {
		if rows, ok := w.eng.TableRows(m.Table); ok && rows == 0 {
			conn.Send(protocol.MsgResult, protocol.Result{ID: m.ID, Mode: mode.String()})
			return
		}
	}
	start := time.Now()
	res, err := w.eng.ExecuteContext(ctx, m.Table, q, mode)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			w.sendErr(conn, m.ID, protocol.CodeCanceled, err.Error())
		case errors.Is(err, fault.ErrInjected):
			w.sendErr(conn, m.ID, protocol.CodeInternal, err.Error())
		case errors.Is(err, core.ErrNoSuchTable):
			// The signature of a restarted, blank worker: the table is gone
			// until the coordinator re-stages it. Its own code keeps the
			// coordinator from either retrying (it cannot help) or failing
			// the whole query as a user error (it is not one).
			w.sendErr(conn, m.ID, protocol.CodeUnknownTable, err.Error())
		default:
			// The engine's remaining errors are query errors by
			// construction — deterministic on every shard, so retrying or
			// degrading would only mask them.
			w.sendErr(conn, m.ID, protocol.CodeBadQuery, err.Error())
		}
		return
	}
	conn.Send(protocol.MsgResult, protocol.Result{
		ID:        m.ID,
		Rows:      int64(res.NumRows()),
		Table:     protocol.FromTable(res),
		ElapsedUS: time.Since(start).Microseconds(),
		Mode:      mode.String(),
	})
}
