package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dex/internal/fault"
)

// fpAdmit injects admission faults: an error policy sheds the query as if
// the queue were full (a well-formed 429 with Retry-After), a latency
// policy delays admission — overload shapes beyond what real load can
// produce deterministically.
var fpAdmit = fault.Register("server/admit")

// Admission-control rejections. Both map to HTTP 429 with a Retry-After
// hint: the service is up, just saturated — IDEBench-style load generators
// count these separately from errors because a well-behaved client backs
// off and retries.
var (
	// ErrQueueFull means the wait queue is at capacity: the query was
	// rejected immediately rather than queued unboundedly.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrQueueTimeout means the query waited its full queue budget without
	// an execution slot freeing up.
	ErrQueueTimeout = errors.New("server: timed out waiting for an execution slot")
)

// admission bounds the number of concurrently executing queries and the
// number waiting behind them. Under overload the invariant is: at most
// maxInFlight queries execute, at most maxQueue wait (each at most
// queueTimeout), everything else is rejected immediately — latency under
// saturation is bounded by construction, never by queue depth.
type admission struct {
	slots        chan struct{} // capacity = max in-flight
	waiters      chan struct{} // capacity = max queue depth
	queueTimeout time.Duration
}

func newAdmission(maxInFlight, maxQueue int, queueTimeout time.Duration) *admission {
	return &admission{
		slots:        make(chan struct{}, maxInFlight),
		waiters:      make(chan struct{}, maxQueue),
		queueTimeout: queueTimeout,
	}
}

// acquire claims an execution slot, waiting in the bounded queue if none is
// free. It returns ErrQueueFull / ErrQueueTimeout on rejection, or the
// context error if the request's deadline fired or the client gave up
// while queued. On nil the caller must release().
func (a *admission) acquire(ctx context.Context) error {
	if err := fpAdmit.Hit(); err != nil {
		// Injected admission failure surfaces as the queue-full rejection:
		// the client contract (429 + Retry-After, safe to retry) holds.
		return fmt.Errorf("%w (%v)", ErrQueueFull, err)
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	// No free slot: join the bounded wait queue or reject immediately.
	select {
	case a.waiters <- struct{}{}:
	default:
		return ErrQueueFull
	}
	defer func() { <-a.waiters }()
	timer := time.NewTimer(a.queueTimeout)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-timer.C:
		return ErrQueueTimeout
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) release() { <-a.slots }

// active returns the number of queries currently holding execution slots.
func (a *admission) active() int { return len(a.slots) }

// queued returns the number of queries waiting for a slot.
func (a *admission) queued() int { return len(a.waiters) }
