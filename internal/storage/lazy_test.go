package storage

import (
	"testing"
	"time"
)

// TestCacheLookupsDoNotWaitOnABuild holds one value index build open and
// checks that a caller of the key being built waits for that build and
// shares it, while the table's other cache lookups — bounds, zone maps,
// another column's index and cells — still return.
func TestCacheLookupsDoNotWaitOnABuild(t *testing.T) {
	const n, morsel = 4096, 256
	xs, ys := make([]float64, n), make([]int64, n)
	for i := range xs {
		xs[i], ys[i] = float64(i%97), int64(i%61)
	}
	tab, err := FromColumns("lazy", Schema{{Name: "x", Type: TFloat}, {Name: "y", Type: TInt}},
		[]Column{NewFloatColumn(xs), NewIntColumn(ys)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tab.ValueBuckets("x")
	if err != nil || b == nil {
		t.Fatal(b, err)
	}
	tab.zones.mu.Lock()
	e := lazyEntry(&tab.zones.indexes, indexKey{"x", morsel}, b)
	tab.zones.mu.Unlock()
	started, release := make(chan struct{}), make(chan struct{})
	held := make(chan *ValueIndex)
	go func() {
		x, _ := e.get(func() *ValueIndex {
			close(started)
			<-release
			return buildValueIndex(tab.cols[0], b, morsel)
		})
		held <- x
	}()
	<-started

	waiter := make(chan bool)
	go func() {
		_, built, _ := tab.ValueIndex("x", morsel)
		waiter <- built
	}()
	select {
	case <-waiter:
		t.Fatal("a caller of the key being built did not wait for its build")
	case <-time.After(20 * time.Millisecond):
	}
	others := make(chan error, 1)
	go func() {
		if _, err := tab.ZoneMap("x", morsel); err != nil {
			others <- err
			return
		}
		if _, err := tab.ValueBuckets("x"); err != nil {
			others <- err
			return
		}
		if _, _, err := tab.ValueIndex("y", morsel); err != nil {
			others <- err
			return
		}
		_, _, _, err := tab.BucketCells("y", "", "x", morsel)
		others <- err
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cache lookups of other keys waited on an index build")
	}

	close(release)
	x := <-held
	if built := <-waiter; built {
		t.Fatal("the waiting caller built the index a second time")
	}
	if got, built, _ := tab.ValueIndex("x", morsel); got != x || built {
		t.Fatalf("cached index %p (built %v), want the held build's %p", got, built, x)
	}
}
