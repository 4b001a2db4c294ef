// Package rawload implements adaptive ("in-situ") data loading in the style
// of NoDB [8,28] and invisible loading [2]: queries run directly against raw
// CSV files, and the system incrementally builds a positional map (byte
// offsets of accessed fields) plus a cache of parsed columns as a side
// effect of query processing. Data that queries never touch is never
// tokenized, parsed, or loaded.
//
// Two baselines complete the experiment of E6: FullLoad (parse everything
// upfront, then query in memory — the traditional DBMS) and ExternalScan
// (re-parse the file for every query — the "external tables" approach).
package rawload

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/fault"
	"dex/internal/storage"
)

// Failpoints on the two raw-file seams: the lazy file read and the per-row
// tokenizer loop. A rate policy on rawload/tokenize fails a query midway
// through materializing a column — the in-situ analogue of a disk read
// error halfway through a scan.
var (
	fpRead     = fault.Register("rawload/read")
	fpTokenize = fault.Register("rawload/tokenize")
)

// Package-level sentinel errors.
var (
	ErrNoSuchColumn = errors.New("rawload: no such column")
	ErrBadRecord    = errors.New("rawload: malformed record")
)

// Stats counts the physical work a raw table has performed; the adaptive
// loading experiments report these alongside latencies.
type Stats struct {
	Queries        int   // queries executed
	BytesTokenized int64 // bytes scanned looking for delimiters
	FieldsParsed   int64 // individual fields converted from text
	ColumnsCached  int   // columns currently materialized in the cache
	PositionalCols int   // columns with positional-map entries
}

// RawTable queries a CSV file in place. The schema is declared by the user
// (NoDB's assumption: schema known, data unloaded). The file is expected to
// have a header line, which is skipped and checked against the schema names.
type RawTable struct {
	mu     sync.Mutex
	name   string
	path   string
	schema storage.Schema

	data     []byte    // lazily loaded file contents (stands in for mmap)
	lineOff  []int32   // byte offset of each data line
	fieldOff [][]int32 // positional map: per column, per row, offset in line; nil until built
	cache    []storage.Column
	// table holds every cached column in schema order; nil once a column
	// is parsed or dropped, until the next Materialize. The engine keeps
	// its indexes per *storage.Table, so repeated queries must get the
	// same one.
	table *storage.Table

	stats Stats
}

// Open prepares a raw table over the CSV file at path. No bytes are read
// until the first query.
func Open(name, path string, schema storage.Schema) (*RawTable, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("rawload: %w", err)
	}
	return &RawTable{
		name:     name,
		path:     path,
		schema:   schema,
		fieldOff: make([][]int32, len(schema)),
		cache:    make([]storage.Column, len(schema)),
	}, nil
}

// Name returns the table name.
func (r *RawTable) Name() string { return r.name }

// Schema returns the declared schema.
func (r *RawTable) Schema() storage.Schema { return r.schema }

// Stats returns a snapshot of the work counters.
func (r *RawTable) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	for _, c := range r.cache {
		if c != nil {
			s.ColumnsCached++
		}
	}
	for _, f := range r.fieldOff {
		if f != nil {
			s.PositionalCols++
		}
	}
	return s
}

// Query executes a single-table query against the raw file, parsing and
// caching only the columns the query touches.
func (r *RawTable) Query(q exec.Query) (*storage.Table, error) {
	cols := queryColumns(q)
	t, err := r.Materialize(cols...)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.stats.Queries++
	r.mu.Unlock()
	return exec.ExecuteCtx(context.Background(), t, q, exec.ExecOptions{})
}

// queryColumns returns the distinct column names a query touches.
func queryColumns(q exec.Query) []string {
	seen := map[string]bool{}
	var out []string
	add := func(c string) {
		if c == "" || c == "*" || seen[c] {
			return
		}
		seen[c] = true
		out = append(out, c)
	}
	for _, s := range q.Select {
		add(s.Col)
	}
	if q.Where != nil {
		for _, c := range q.Where.Columns() {
			add(c)
		}
	}
	for _, g := range q.GroupBy {
		add(g)
	}
	for _, o := range q.OrderBy {
		add(o.Col)
	}
	return out
}

// Materialize returns an in-memory table holding the named columns,
// parsing from the raw file whatever is not cached yet. The table holds
// every column parsed so far, in schema order, and is the same table from
// call to call until another column is parsed. Multiple missing columns
// are parsed concurrently (the parallel in-situ processing idea of [15]):
// each worker tokenizes independently from the nearest positional map
// built by *previous* queries, so workers never depend on each other.
func (r *RawTable) Materialize(names ...string) (*storage.Table, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensureLines(); err != nil {
		return nil, err
	}
	var missing []int
	for _, n := range names {
		i := r.schema.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("%q: %w", n, ErrNoSuchColumn)
		}
		if r.cache[i] == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		r.table = nil // before parsing: a failed parse may still cache a column
	}
	switch len(missing) {
	case 0:
	case 1:
		c, err := r.parseColumn(missing[0])
		if err != nil {
			return nil, err
		}
		r.cache[missing[0]] = c
	default:
		type parsed struct {
			idx  int
			col  storage.Column
			offs []int32
			st   Stats
			err  error
		}
		results := make([]parsed, len(missing))
		var wg sync.WaitGroup
		for w, idx := range missing {
			wg.Add(1)
			go func(w, idx int) {
				defer wg.Done()
				col, offs, st, err := r.parseColumnInto(idx)
				results[w] = parsed{idx: idx, col: col, offs: offs, st: st, err: err}
			}(w, idx)
		}
		wg.Wait()
		for _, res := range results {
			if res.err != nil {
				return nil, res.err
			}
			r.cache[res.idx] = res.col
			r.fieldOff[res.idx] = res.offs
			r.stats.BytesTokenized += res.st.BytesTokenized
			r.stats.FieldsParsed += res.st.FieldsParsed
		}
	}
	if r.table == nil {
		var schema storage.Schema
		var cols []storage.Column
		for i, c := range r.cache {
			if c != nil {
				schema = append(schema, r.schema[i])
				cols = append(cols, c)
			}
		}
		t, err := storage.FromColumns(r.name, schema, cols)
		if err != nil {
			return nil, err
		}
		r.table = t
	}
	return r.table, nil
}

// ensureLines lazily loads the file and indexes data-line offsets.
func (r *RawTable) ensureLines() error {
	if r.data != nil {
		return nil
	}
	if err := fpRead.Hit(); err != nil {
		return err
	}
	data, err := os.ReadFile(r.path)
	if err != nil {
		return fmt.Errorf("rawload: %w", err)
	}
	r.data = data
	r.stats.BytesTokenized += int64(len(data))
	// Skip header.
	start := 0
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		start = i + 1
	} else {
		start = len(data)
	}
	for p := start; p < len(data); {
		nl := bytes.IndexByte(data[p:], '\n')
		next := len(data)
		if nl >= 0 {
			next = p + nl + 1
		}
		if lineEnd(data, p) > p { // skip empty lines (incl. trailing newline)
			r.lineOff = append(r.lineOff, int32(p))
		}
		p = next
	}
	return nil
}

func lineEnd(data []byte, p int) int {
	nl := bytes.IndexByte(data[p:], '\n')
	if nl < 0 {
		return len(data)
	}
	end := p + nl
	if end > p && data[end-1] == '\r' {
		end--
	}
	return end
}

// NumRows returns the number of data rows (tokenizing line offsets if
// needed).
func (r *RawTable) NumRows() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensureLines(); err != nil {
		return 0, err
	}
	return len(r.lineOff), nil
}

// parseColumn extracts column idx from every line and installs its
// positional map. Caller holds the mutex.
func (r *RawTable) parseColumn(idx int) (storage.Column, error) {
	col, offs, st, err := r.parseColumnInto(idx)
	if err != nil {
		return nil, err
	}
	r.fieldOff[idx] = offs
	r.stats.BytesTokenized += st.BytesTokenized
	r.stats.FieldsParsed += st.FieldsParsed
	return col, nil
}

// parseColumnInto extracts column idx, exploiting the positional map: it
// starts tokenizing at the nearest column with known offsets instead of the
// start of the line. It only READS shared state (r.data, r.lineOff, and
// already-built fieldOff entries), returning the new offsets and work
// counters for the caller to install — so several invocations can run
// concurrently under the mutex held by Materialize.
func (r *RawTable) parseColumnInto(idx int) (storage.Column, []int32, Stats, error) {
	var st Stats
	n := len(r.lineOff)
	col := storage.NewColumn(r.schema[idx].Type)
	offs := make([]int32, n)

	// Nearest previously mapped column at or before idx.
	base := -1
	for j := idx - 1; j >= 0; j-- {
		if r.fieldOff[j] != nil {
			base = j
			break
		}
	}
	for row := 0; row < n; row++ {
		if err := fpTokenize.Hit(); err != nil {
			return nil, nil, st, err
		}
		lineStart := int(r.lineOff[row])
		end := lineEnd(r.data, lineStart)
		// Position of field `base+1`'s start.
		p := lineStart
		fieldsToSkip := idx
		if base >= 0 {
			p = lineStart + int(r.fieldOff[base][row])
			fieldsToSkip = idx - base
		}
		// Skip fieldsToSkip commas from p.
		for s := 0; s < fieldsToSkip; s++ {
			c := bytes.IndexByte(r.data[p:end], ',')
			if c < 0 {
				return nil, nil, st, fmt.Errorf("row %d: field %d missing: %w", row, idx, ErrBadRecord)
			}
			st.BytesTokenized += int64(c + 1)
			p += c + 1
		}
		offs[row] = int32(p - lineStart)
		fend := end
		if c := bytes.IndexByte(r.data[p:end], ','); c >= 0 {
			fend = p + c
		}
		st.BytesTokenized += int64(fend - p)
		v, err := storage.ParseValue(string(r.data[p:fend]), r.schema[idx].Type)
		if err != nil {
			return nil, nil, st, fmt.Errorf("row %d col %d: %w", row, idx, err)
		}
		st.FieldsParsed++
		if err := col.Append(v); err != nil {
			return nil, nil, st, err
		}
	}
	return col, offs, st, nil
}

// DropCache evicts all parsed columns (the positional map is kept), so
// memory-pressure scenarios can be simulated.
func (r *RawTable) DropCache() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.cache {
		r.cache[i] = nil
	}
	r.table = nil
}

// FullLoad is the traditional baseline: parse the entire file into a table
// upfront, then answer queries from memory.
type FullLoad struct {
	table *storage.Table
}

// NewFullLoad loads the whole CSV file immediately.
func NewFullLoad(name, path string) (*FullLoad, error) {
	t, err := storage.ReadCSVFile(name, path)
	if err != nil {
		return nil, err
	}
	return &FullLoad{table: t}, nil
}

// Query executes against the pre-loaded table.
func (f *FullLoad) Query(q exec.Query) (*storage.Table, error) {
	return exec.ExecuteCtx(context.Background(), f.table, q, exec.ExecOptions{})
}

// Table exposes the loaded table.
func (f *FullLoad) Table() *storage.Table { return f.table }

// ExternalScan is the no-state baseline: every query re-parses the file.
type ExternalScan struct {
	name string
	path string
}

// NewExternalScan wraps the file without reading it.
func NewExternalScan(name, path string) *ExternalScan {
	return &ExternalScan{name: name, path: path}
}

// Query re-parses the whole file, then executes.
func (e *ExternalScan) Query(q exec.Query) (*storage.Table, error) {
	t, err := storage.ReadCSVFile(e.name, e.path)
	if err != nil {
		return nil, err
	}
	return exec.ExecuteCtx(context.Background(), t, q, exec.ExecOptions{})
}

// Querier is the common shape of RawTable, FullLoad and ExternalScan.
type Querier interface {
	Query(q exec.Query) (*storage.Table, error)
}

var (
	_ Querier = (*RawTable)(nil)
	_ Querier = (*FullLoad)(nil)
	_ Querier = (*ExternalScan)(nil)
)

// SelectivityProbe is a convenience used by experiments: a COUNT(*) query
// with a single range predicate on column col.
func SelectivityProbe(col string, lo, hi float64) exec.Query {
	return exec.Query{
		Select: []exec.SelectItem{{Col: "*", Agg: exec.AggCount}},
		Where: expr.And(
			expr.Cmp(col, expr.GE, storage.Float(lo)),
			expr.Cmp(col, expr.LT, storage.Float(hi)),
		),
	}
}
