package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host calibration. The reference host flips, every few minutes, between a
// quiet state and one where a neighbour slows memory-bound code by 30-70 %
// while a register-only loop (host.spin_ms) barely notices. A run lives
// inside one state or the other, so no statistic over its rounds removes
// the difference: ten runs of identical code spread 11-27 % in round time
// (README, "Two sets of the same code"). What does remove most of it is
// pricing the host every few sessions with a fixed piece of work shaped like
// the engine's own — a predicate scan with grouped accumulation over a
// column larger than the cache, then an index gather into cleared memory —
// written here, allocation-free, so no change to the engine can move it. Timing metrics are reported in reference-host milliseconds:
// measured time x (calReferenceMS / the kernel's time measured around it).
// On the quiet reference host that factor is 1.

// calReferenceMS is the calibration kernel's time on the reference host
// (2-core Xeon 2.1 GHz VM) in its quiet state.
const calReferenceMS = 25.0

// calibration holds the kernel's fixed input. The arrays live outside the Go
// heap, so they neither move the collector's pacing nor, being the same 48 MB
// in every run, the differences in rss_peak_mb.
type calibration struct {
	mu    sync.Mutex // one sample at a time: they share the gather buffer
	vals  []float64  // 32 MB: larger than any last-level cache share
	codes []uint8
	idx   []int32
	out   []float64
	maps  [][]byte // the mappings behind the four arrays
}

// offHeap maps n zeroed elements outside the Go heap and records the
// mapping in c for close.
func offHeap[T any](c *calibration, n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration: mmap: %w", err)
	}
	c.maps = append(c.maps, b)
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

func newCalibration() (*calibration, error) {
	c := &calibration{}
	var err error
	if c.vals, err = offHeap[float64](c, 4<<20); err == nil {
		if c.codes, err = offHeap[uint8](c, 4<<20); err == nil {
			if c.idx, err = offHeap[int32](c, 1<<20); err == nil {
				c.out, err = offHeap[float64](c, 1<<20)
			}
		}
	}
	if err != nil {
		c.close()
		return nil, err
	}
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range c.vals {
		c.vals[i] = float64(next()%100000) / 100
		c.codes[i] = uint8(next() % 20)
	}
	for i := range c.idx {
		c.idx[i] = int32(next() % uint32(len(c.vals)))
	}
	return c, nil
}

// close unmaps the arrays; c must not be sampled afterwards.
func (c *calibration) close() {
	for _, b := range c.maps {
		syscall.Munmap(b) // fails only for a mapping that is not one
	}
	c.maps = nil
}

// sample runs the kernel once and returns the host factor it measured: its
// time over calReferenceMS. A nil calibration measures nothing and reports a
// quiet host.
func (c *calibration) sample() float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t0 := time.Now()
	var sum [20]float64
	for i, v := range c.vals {
		if v >= 100 && v < 900 {
			sum[c.codes[i]] += v
		}
	}
	clear(c.out)
	for i, j := range c.idx {
		c.out[i] = c.vals[j]
	}
	if sum[3]+c.out[len(c.out)/2] < 0 {
		panic("calibration: negative sum of positive values") // keeps both loops alive
	}
	return float64(time.Since(t0)) / float64(time.Millisecond) / calReferenceMS
}

// settle averages n samples: the factor around something long (a set-up).
func (c *calibration) settle(n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += c.sample()
	}
	return sum / float64(n)
}

// spinMS times a fixed arithmetic loop: the same work every call, so a
// change in its time is the host's doing, not the program's.
func spinMS() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

var spinSink uint64
