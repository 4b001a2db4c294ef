package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Package-level sentinel errors.
var (
	ErrTypeMismatch   = errors.New("storage: type mismatch")
	ErrNoSuchColumn   = errors.New("storage: no such column")
	ErrArity          = errors.New("storage: wrong number of values")
	ErrRaggedColumns  = errors.New("storage: columns have different lengths")
	ErrDuplicateField = errors.New("storage: duplicate field name")
)

// Field describes one attribute of a schema.
type Field struct {
	Name string
	Type Type
}

// Schema is an ordered list of fields.
type Schema []Field

// Index returns the position of the named field, or -1.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the field names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = f.Name
	}
	return out
}

// Validate checks the schema for duplicate field names.
func (s Schema) Validate() error {
	seen := make(map[string]bool, len(s))
	for _, f := range s {
		if seen[f.Name] {
			return fmt.Errorf("field %q: %w", f.Name, ErrDuplicateField)
		}
		seen[f.Name] = true
	}
	return nil
}

// String renders the schema as "name TYPE, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.Name + " " + f.Type.String()
	}
	return strings.Join(parts, ", ")
}

// Table is a named collection of equally long columns. The embedded index
// cache (bucket bounds, value indexes and bucket cells, see valueindex.go
// and bucketcells.go) is lazily built per-table state; its zero value is
// ready, so the struct literals below need not mention it.
type Table struct {
	name   string
	schema Schema
	cols   []Column
	cache  indexCache
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	cols := make([]Column, len(schema))
	for i, f := range schema {
		cols[i] = NewColumn(f.Type)
	}
	return &Table{name: name, schema: schema, cols: cols}, nil
}

// FromColumns builds a table directly from pre-populated columns.
// The columns are adopted, not copied.
func FromColumns(name string, schema Schema, cols []Column) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(schema) != len(cols) {
		return nil, fmt.Errorf("%d fields, %d columns: %w", len(schema), len(cols), ErrArity)
	}
	n := -1
	for i, c := range cols {
		if c.Type() != schema[i].Type {
			return nil, fmt.Errorf("column %q is %v, schema says %v: %w",
				schema[i].Name, c.Type(), schema[i].Type, ErrTypeMismatch)
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("column %q has %d rows, expected %d: %w",
				schema[i].Name, c.Len(), n, ErrRaggedColumns)
		}
	}
	return &Table{name: name, schema: schema, cols: cols}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. Callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Column returns the i-th column.
func (t *Table) Column(i int) Column { return t.cols[i] }

// ColumnByName returns the named column.
func (t *Table) ColumnByName(name string) (Column, error) {
	i := t.schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("%q: %w", name, ErrNoSuchColumn)
	}
	return t.cols[i], nil
}

// AppendRow adds one row. The value count and types must match the schema.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("%d values for %d columns: %w", len(vals), len(t.cols), ErrArity)
	}
	for i, v := range vals {
		if err := t.cols[i].Append(v); err != nil {
			return fmt.Errorf("column %q: %w", t.schema[i].Name, err)
		}
	}
	return nil
}

// Row returns the values of row i (boxed).
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.Value(i)
	}
	return out
}

// Gather returns a new table holding the rows at the given positions,
// in the given order.
func (t *Table) Gather(sel []int) *Table {
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.Gather(sel)
	}
	return &Table{name: t.name, schema: t.schema, cols: cols}
}

// SortBy returns a new table sorted by the named column (ascending unless
// desc) under Value.Order, so NULLs come last ascending and first
// descending. The sort is stable so secondary order is preserved. It is the
// boxed reference sort; the engine orders rows with exec's typed comparator.
func (t *Table) SortBy(name string, desc bool) (*Table, error) {
	c, err := t.ColumnByName(name)
	if err != nil {
		return nil, err
	}
	sel := make([]int, t.NumRows())
	for i := range sel {
		sel[i] = i
	}
	sort.SliceStable(sel, func(a, b int) bool {
		cmp := c.Value(sel[a]).Order(c.Value(sel[b]))
		if desc {
			return cmp > 0
		}
		return cmp < 0
	})
	return t.Gather(sel), nil
}

// Format renders up to maxRows rows as an aligned text table for terminals.
func (t *Table) Format(maxRows int) string {
	var b strings.Builder
	widths := make([]int, len(t.schema))
	for i, f := range t.schema {
		widths[i] = len(f.Name)
	}
	n := t.NumRows()
	shown := n
	if maxRows > 0 && shown > maxRows {
		shown = maxRows
	}
	rows := make([][]string, shown)
	for r := 0; r < shown; r++ {
		rows[r] = make([]string, len(t.cols))
		for c := range t.cols {
			s := t.cols[c].Value(r).String()
			rows[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for i, f := range t.schema {
		fmt.Fprintf(&b, "%-*s  ", widths[i], f.Name)
	}
	b.WriteByte('\n')
	for i := range t.schema {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range rows {
		for c, s := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[c], s)
		}
		b.WriteByte('\n')
	}
	if shown < n {
		fmt.Fprintf(&b, "... (%d rows total)\n", n)
	}
	return b.String()
}
