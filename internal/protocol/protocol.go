// Package protocol is the compact framed wire protocol between a dex
// coordinator and its shard workers. It deliberately knows nothing about
// execution: messages, framing and the wire encodings of queries and
// tables live here; scatter/gather policy lives in internal/shard.
//
// Framing: every message is a 4-byte big-endian length, one type byte,
// and a JSON payload. JSON keeps the payloads debuggable (`nc` a worker
// and read the traffic) while the length prefix keeps parsing
// allocation-bounded and lets one connection multiplex concurrent
// requests — every request/response carries a uint64 ID, so responses
// may arrive in any order.
//
// JSON cannot carry NaN (the engine's NULL) or ±Inf (the estimators'
// unbounded CI), and result tables routinely contain both. The wire
// therefore encodes every cell and predicate constant as a string via
// storage.Value.String / storage.ParseValue, which round-trip all three
// value types exactly — including NaN, ±Inf and full float64 precision
// ('g', -1 formatting).
package protocol

import (
	"errors"
	"fmt"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
)

// Version is the protocol version exchanged in Hello/HelloAck. A worker
// refuses a coordinator with a different version: the fleet is deployed
// as one unit, so a mismatch means a half-upgraded cluster.
const Version = 1

// Message type bytes.
const (
	// MsgHello opens a connection (coordinator -> worker).
	MsgHello byte = iota + 1
	// MsgHelloAck answers a Hello (worker -> coordinator).
	MsgHelloAck
	// MsgLoad tells the worker to stage a source table (demo generator or
	// server-side CSV path).
	MsgLoad
	// MsgPartition tells the worker which partition of a staged table to
	// keep and register for queries.
	MsgPartition
	// MsgQuery submits one query for execution.
	MsgQuery
	// MsgCancel cancels an in-flight query by ID.
	MsgCancel
	// MsgResult carries a successful response to Load/Partition/Query.
	MsgResult
	// MsgError carries a failed response to any request.
	MsgError
	// MsgPing / MsgPong are the liveness probe.
	MsgPing
	MsgPong
	// MsgStats asks the worker for its engine-level counters; MsgStatsAck
	// answers. The healer uses it both as a liveness probe and to decide
	// whether a reachable worker still holds its staged partition.
	MsgStats
	MsgStatsAck
)

// Error codes carried by ErrorMsg. The coordinator's retry policy keys
// off them: a query the user got wrong fails the same way everywhere, so
// only infrastructure failures are worth another attempt.
const (
	// CodeBadQuery marks a user error (bad SQL shape, unknown column):
	// deterministic, never retried.
	CodeBadQuery = "bad_query"
	// CodeCanceled marks a query that stopped because its context was
	// cancelled or its deadline expired on the worker.
	CodeCanceled = "canceled"
	// CodeInternal marks an infrastructure failure (including injected
	// faults): retryable.
	CodeInternal = "internal"
	// CodeUnknownTable marks a query against a table the worker has not
	// registered — the signature of a restarted, blank worker. It is
	// deliberately its own code: retrying cannot help (the table stays
	// missing until someone re-stages it), so the coordinator classifies
	// it non-retryable and heals the shard instead.
	CodeUnknownTable = "unknown_table"
)

// Hello is the connection opener.
type Hello struct {
	ID      uint64 `json:"id"`
	Version int    `json:"version"`
	// Name identifies the coordinator (logs only).
	Name string `json:"name,omitempty"`
}

// HelloAck answers a Hello.
type HelloAck struct {
	ID      uint64 `json:"id"`
	Version int    `json:"version"`
	// Shard is the worker's self-reported shard index (-1 before a
	// Partition assigns one).
	Shard int `json:"shard"`
	// Tables lists the worker's registered (partitioned) tables.
	Tables []string `json:"tables,omitempty"`
}

// Load stages a source table on the worker. Exactly one of Kind (demo
// generator: sales|sky|ticks) or Path (CSV readable by the worker
// process) is set. The staged table is not queryable until a Partition
// message selects the worker's slice of it.
type Load struct {
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	Kind string `json:"kind,omitempty"`
	Rows int    `json:"rows,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	Path string `json:"path,omitempty"`
}

// Partition tells the worker to keep partition Index of Count of a
// staged table, partitioned on Column under Scheme ("hash" or "range";
// range uses Bounds, the Count-1 ascending split points). The worker
// computes its own slice — the coordinator never ships rows.
type Partition struct {
	ID     uint64    `json:"id"`
	Table  string    `json:"table"`
	Column string    `json:"column"`
	Scheme string    `json:"scheme"`
	Index  int       `json:"index"`
	Count  int       `json:"count"`
	Bounds []float64 `json:"bounds,omitempty"`
	// Owned lists every partition index this worker keeps. Empty means
	// just Index — the healthy one-partition-per-worker layout. After a
	// repartition heal a survivor adopts a dead peer's partition, so its
	// Owned carries several indices; the worker keeps the union of their
	// rows.
	Owned []int `json:"owned,omitempty"`
}

// Query submits one query against a registered table.
type Query struct {
	ID    uint64 `json:"id"`
	Table string `json:"table"`
	// Mode is the execution mode name (exact|cracked|approx|online).
	Mode  string    `json:"mode"`
	Query WireQuery `json:"query"`
	// TimeoutMS bounds execution on the worker (0 = no worker-side bound
	// beyond the connection's health).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Cancel aborts the in-flight request with the same ID. The worker still
// answers the cancelled request (with CodeCanceled), so the coordinator
// never leaks a pending slot.
type Cancel struct {
	ID uint64 `json:"id"`
}

// Result is the successful response to Load, Partition or Query. For
// Load/Partition the table is empty and Rows reports the staged/kept row
// count; for Query it is the result table.
type Result struct {
	ID        uint64    `json:"id"`
	Rows      int64     `json:"rows"`
	Table     WireTable `json:"table"`
	ElapsedUS int64     `json:"elapsed_us,omitempty"`
	// Degraded mirrors core.Answer.Degraded for worker-local degradation.
	Degraded bool `json:"degraded,omitempty"`
	// Mode is the mode that actually produced the result.
	Mode string `json:"mode,omitempty"`
}

// ErrorMsg is the failed response to any request.
type ErrorMsg struct {
	ID   uint64 `json:"id"`
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// Ping is the liveness probe; Pong echoes its ID.
type Ping struct {
	ID uint64 `json:"id"`
}

// Pong answers a Ping.
type Pong struct {
	ID uint64 `json:"id"`
}

// Stats asks the worker for its engine-level counters.
type Stats struct {
	ID uint64 `json:"id"`
}

// TableStat is one registered (queryable) table in a WorkerStats reply.
type TableStat struct {
	Name string `json:"name"`
	Rows int64  `json:"rows"`
}

// CrackStat reports one shard-local crack index.
type CrackStat struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	Pieces int    `json:"pieces"`
	Cracks int64  `json:"cracks"`
}

// WorkerStats answers a Stats probe with the worker's shard-local
// counters: the crack, zone-map, value-index and bucket-cell numbers the
// coordinator's stats section was blind to, plus the registered tables the
// healer compares against the placement map to tell a healthy worker from
// a blank restart.
type WorkerStats struct {
	ID           uint64      `json:"id"`
	Shard        int         `json:"shard"`
	RowsScanned  int64       `json:"rows_scanned"`
	ZoneSkipped  int64       `json:"zone_skipped"`
	IndexMorsels int64       `json:"index_morsels"`
	CellQueries  int64       `json:"cell_queries"`
	Tables       []TableStat `json:"tables,omitempty"`
	Cracks       []CrackStat `json:"cracks,omitempty"`
}

// ---- wire encodings ----

// WireValue is one typed scalar, string-encoded (see package comment).
type WireValue struct {
	Typ string `json:"t"`
	Val string `json:"v"`
}

// FromValue encodes a storage.Value.
func FromValue(v storage.Value) WireValue {
	return WireValue{Typ: v.Typ.String(), Val: v.String()}
}

// ToValue decodes back to a storage.Value.
func (w WireValue) ToValue() (storage.Value, error) {
	t, err := ParseType(w.Typ)
	if err != nil {
		return storage.Value{}, err
	}
	return storage.ParseValue(w.Val, t)
}

// ParseType parses a storage.Type name as rendered by Type.String.
func ParseType(s string) (storage.Type, error) {
	switch s {
	case "INT":
		return storage.TInt, nil
	case "FLOAT":
		return storage.TFloat, nil
	case "TEXT":
		return storage.TString, nil
	default:
		return 0, fmt.Errorf("protocol: unknown type %q", s)
	}
}

// WirePred is the wire form of an expr.Pred tree.
type WirePred struct {
	Kind uint8      `json:"k"`
	Col  string     `json:"c,omitempty"`
	Op   uint8      `json:"o,omitempty"`
	Val  *WireValue `json:"v,omitempty"`
	Kids []WirePred `json:"kids,omitempty"`
}

// FromPred encodes a predicate tree (nil stays nil).
func FromPred(p *expr.Pred) *WirePred {
	if p == nil {
		return nil
	}
	w := &WirePred{Kind: uint8(p.Kind), Col: p.Col, Op: uint8(p.Op)}
	if p.Kind == expr.KCmp || p.Kind == expr.KLike {
		v := FromValue(p.Val)
		w.Val = &v
	}
	for _, k := range p.Kids {
		w.Kids = append(w.Kids, *FromPred(k))
	}
	return w
}

// ToPred decodes back to an expr.Pred tree.
func (w *WirePred) ToPred() (*expr.Pred, error) {
	if w == nil {
		return nil, nil
	}
	p := &expr.Pred{Kind: expr.Kind(w.Kind), Col: w.Col, Op: expr.Op(w.Op)}
	if w.Val != nil {
		v, err := w.Val.ToValue()
		if err != nil {
			return nil, err
		}
		p.Val = v
	}
	for i := range w.Kids {
		k, err := w.Kids[i].ToPred()
		if err != nil {
			return nil, err
		}
		p.Kids = append(p.Kids, k)
	}
	return p, nil
}

// WireSelect is one select item.
type WireSelect struct {
	Col string `json:"col"`
	Agg uint8  `json:"agg,omitempty"`
	As  string `json:"as,omitempty"`
}

// WireOrder is one ORDER BY key.
type WireOrder struct {
	Col  string `json:"col"`
	Desc bool   `json:"desc,omitempty"`
}

// WireQuery is the wire form of an exec.Query.
type WireQuery struct {
	Select  []WireSelect `json:"select"`
	Where   *WirePred    `json:"where,omitempty"`
	GroupBy []string     `json:"group_by,omitempty"`
	Having  *WirePred    `json:"having,omitempty"`
	OrderBy []WireOrder  `json:"order_by,omitempty"`
	Limit   int          `json:"limit,omitempty"`
}

// FromQuery encodes an exec.Query.
func FromQuery(q exec.Query) WireQuery {
	w := WireQuery{
		Where:   FromPred(q.Where),
		GroupBy: q.GroupBy,
		Having:  FromPred(q.Having),
		Limit:   q.Limit,
	}
	for _, s := range q.Select {
		w.Select = append(w.Select, WireSelect{Col: s.Col, Agg: uint8(s.Agg), As: s.As})
	}
	for _, o := range q.OrderBy {
		w.OrderBy = append(w.OrderBy, WireOrder{Col: o.Col, Desc: o.Desc})
	}
	return w
}

// ToQuery decodes back to an exec.Query.
func (w WireQuery) ToQuery() (exec.Query, error) {
	q := exec.Query{GroupBy: w.GroupBy, Limit: w.Limit}
	var err error
	if q.Where, err = w.Where.ToPred(); err != nil {
		return exec.Query{}, err
	}
	if q.Having, err = w.Having.ToPred(); err != nil {
		return exec.Query{}, err
	}
	for _, s := range w.Select {
		q.Select = append(q.Select, exec.SelectItem{Col: s.Col, Agg: exec.AggFunc(s.Agg), As: s.As})
	}
	for _, o := range w.OrderBy {
		q.OrderBy = append(q.OrderBy, exec.OrderKey{Col: o.Col, Desc: o.Desc})
	}
	return q, nil
}

// WireTable is a column-major string-encoded result table: Cells[c][r]
// is row r of column c. Column-major keeps the JSON compact (one array
// per column) and decodes straight into the columnar storage layer.
type WireTable struct {
	Name  string     `json:"name"`
	Cols  []string   `json:"cols"`
	Types []string   `json:"types"`
	Cells [][]string `json:"cells"`
}

// FromTable encodes a storage.Table (nil encodes as an empty table).
func FromTable(t *storage.Table) WireTable {
	if t == nil {
		return WireTable{}
	}
	schema := t.Schema()
	w := WireTable{
		Name:  t.Name(),
		Cols:  make([]string, len(schema)),
		Types: make([]string, len(schema)),
		Cells: make([][]string, len(schema)),
	}
	for c, f := range schema {
		w.Cols[c] = f.Name
		w.Types[c] = f.Type.String()
		col := t.Column(c)
		cells := make([]string, col.Len())
		for r := 0; r < col.Len(); r++ {
			cells[r] = col.Value(r).String()
		}
		w.Cells[c] = cells
	}
	return w
}

// ToTable decodes back to a storage.Table.
func (w WireTable) ToTable() (*storage.Table, error) {
	if len(w.Cols) != len(w.Types) || len(w.Cols) != len(w.Cells) {
		return nil, errors.New("protocol: malformed wire table: cols/types/cells lengths differ")
	}
	schema := make(storage.Schema, len(w.Cols))
	cols := make([]storage.Column, len(w.Cols))
	rows := -1
	for c := range w.Cols {
		t, err := ParseType(w.Types[c])
		if err != nil {
			return nil, err
		}
		schema[c] = storage.Field{Name: w.Cols[c], Type: t}
		if rows < 0 {
			rows = len(w.Cells[c])
		} else if rows != len(w.Cells[c]) {
			return nil, errors.New("protocol: malformed wire table: ragged columns")
		}
		col := storage.NewColumn(t)
		for _, s := range w.Cells[c] {
			v, err := storage.ParseValue(s, t)
			if err != nil {
				return nil, err
			}
			if err := col.Append(v); err != nil {
				return nil, err
			}
		}
		cols[c] = col
	}
	return storage.FromColumns(w.Name, schema, cols)
}
