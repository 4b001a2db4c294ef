// Package dex is a data-exploration engine: a reproduction, as one coherent
// Go library, of the technique families surveyed in "Overview of Data
// Exploration Techniques" (Idreos, Papaemmanouil, Chaudhuri — SIGMOD 2015).
//
// The public surface is the engine facade: register or attach tables, then
// query them in one of four execution modes:
//
//	e := dex.New(dex.Options{})
//	_ = e.LoadCSV("sales", "sales.csv")
//	res, _ := e.SQL("SELECT region, avg(amount) FROM sales GROUP BY region", dex.Approx)
//	fmt.Print(res.Format(20))
//
// Exact executes fully; Cracked builds adaptive indexes as a side effect of
// range queries (database cracking); Approx answers aggregates from a
// random sample with confidence intervals (AQP), read until a 5% error
// bound or a tenth of the rows; Online reads on until its confidence
// interval meets a 1% target (online aggregation).
//
// The technique families themselves — adaptive indexing, adaptive loading,
// adaptive storage, sampling, prefetching, cube exploration,
// diversification, explore-by-example steering, query-by-example discovery,
// query recommendation, visualization recommendation and reduction, time
// series indexing, gestural queries — live in the internal packages and are
// exercised by the experiment harness (cmd/experiments) and the examples.
package dex

import (
	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/storage"
)

// Engine is the exploration engine facade.
type Engine = core.Engine

// Session tracks one user's exploration and powers query recommendation.
type Session = core.Session

// TableProfile is the data-profiling summary returned by Engine.Profile.
type TableProfile = core.TableProfile

// ColumnProfile summarizes one column inside a TableProfile.
type ColumnProfile = core.ColumnProfile

// Options configures an Engine.
type Options = core.Options

// ExecOptions tunes the morsel-driven execution pipeline (Options.Exec):
// Parallelism 0 means GOMAXPROCS, 1 runs inline. The zero value is the
// full engine — the value index, typed kernels and encoded columns are
// not options.
type ExecOptions = exec.ExecOptions

// Mode selects how a query executes.
type Mode = core.Mode

// Execution modes.
const (
	Exact   = core.Exact
	Cracked = core.Cracked
	Approx  = core.Approx
	Online  = core.Online
)

// Re-exported sentinel errors.
var (
	ErrBadMode     = core.ErrBadMode
	ErrNotApprox   = core.ErrNotApprox
	ErrNoSuchTable = core.ErrNoSuchTable
)

// Table is an in-memory column-store table.
type Table = storage.Table

// Schema describes a table's fields.
type Schema = storage.Schema

// Field is one schema attribute.
type Field = storage.Field

// Value is a dynamically typed scalar.
type Value = storage.Value

// Column types.
const (
	TInt    = storage.TInt
	TFloat  = storage.TFloat
	TString = storage.TString
)

// New creates an engine.
func New(opt Options) *Engine { return core.New(opt) }

// ParseMode parses a mode name ("exact", "cracked", "approx", "online";
// "" means Exact). It returns ErrBadMode for anything else.
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) (*Table, error) {
	return storage.NewTable(name, schema)
}

// ReadCSVFile loads a CSV file into a table.
func ReadCSVFile(name, path string) (*Table, error) {
	return storage.ReadCSVFile(name, path)
}

// WriteCSVFile writes a table to a CSV file.
func WriteCSVFile(t *Table, path string) error {
	return storage.WriteCSVFile(t, path)
}

// Int, Float and Str build values.
func Int(i int64) Value     { return storage.Int(i) }
func Float(f float64) Value { return storage.Float(f) }
func Str(s string) Value    { return storage.String_(s) }
