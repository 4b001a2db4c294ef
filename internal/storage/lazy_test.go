package storage

import (
	"errors"
	"testing"
	"time"

	"dex/internal/fault"
)

// TestCacheLookupsDoNotWaitOnABuild holds one value index build open and
// checks that a caller of the key being built waits for that build and
// shares it, while the table's other cache lookups — bounds, another
// column's index and cells — still return.
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
	tab.cache.mu.Lock()
	e := lazyEntry(&tab.cache.indexes, indexKey{"x", morsel}, b)
	tab.cache.mu.Unlock()
	started, release := make(chan struct{}), make(chan struct{})
	held := make(chan *ValueIndex)
	go func() {
		x, _, _ := e.get(func() *ValueIndex {
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

// TestIndexBuildFaultWaiterBuilds fails the build of an index while its
// other first callers wait on it: the caller whose build the
// storage/index-build failpoint fails gets the injected error, one waiter
// builds the index, and the rest share that build.
func TestIndexBuildFaultWaiterBuilds(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	const n, morsel, callers = 4096, 256, 8
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i % 97)
	}
	tab, err := FromColumns("fail", Schema{{Name: "x", Type: TFloat}}, []Column{NewFloatColumn(xs)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tab.ValueBuckets("x")
	if err != nil || b == nil {
		t.Fatal(b, err)
	}
	tab.cache.mu.Lock()
	e := lazyEntry(&tab.cache.indexes, indexKey{"x", morsel}, b)
	tab.cache.mu.Unlock()
	if err := fault.Enable("storage/index-build", "error-once"); err != nil {
		t.Fatal(err)
	}
	type result struct {
		x     *ValueIndex
		built bool
		err   error
	}
	out := make(chan result, callers)
	e.mu.Lock() // a build in flight: the callers queue behind it
	for i := 0; i < callers; i++ {
		go func() {
			x, built, err := tab.ValueIndex("x", morsel)
			out <- result{x, built, err}
		}()
	}
	// Let the callers reach the lock; the counts below hold in whatever
	// order they take it.
	time.Sleep(20 * time.Millisecond)
	e.mu.Unlock()
	var shared *ValueIndex
	failed, builds := 0, 0
	for i := 0; i < callers; i++ {
		r := <-out
		switch {
		case r.err != nil:
			if !errors.Is(r.err, fault.ErrInjected) {
				t.Fatalf("caller error %v, want injected", r.err)
			}
			failed++
			continue
		case r.x == nil || shared != nil && r.x != shared:
			t.Fatalf("caller got index %p, want the one build %p", r.x, shared)
		case r.built:
			builds++
		}
		shared = r.x
	}
	if failed != 1 || builds != 1 {
		t.Fatalf("%d callers failed and %d built; want one of each", failed, builds)
	}
	if x, built, err := tab.ValueIndex("x", morsel); x != shared || built || err != nil {
		t.Fatalf("later lookup: %p built %v err %v; want the cached %p", x, built, err, shared)
	}
}
