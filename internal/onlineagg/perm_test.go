package onlineagg

import (
	"slices"
	"testing"
)

// permOrder is the whole order of the permutation of [0, n) keyed by seed.
func permOrder(n int, seed int64) []int {
	p := newPerm(n, seed)
	out := make([]int, n)
	p.fill(out, 0)
	return out
}

// TestPermIsABijection: for domains of every shape the Feistel network
// meets — empty, one to three rows, primes, and powers of two and their
// neighbours up to 2^20, where the cycle-walk is longest or absent — every
// key maps [0, n) onto itself, each row once.
func TestPermIsABijection(t *testing.T) {
	ns := []int{0, 1, 2, 3}
	for p := 5; p < 100; p++ {
		prime := true
		for d := 2; d*d <= p; d++ {
			prime = prime && p%d != 0
		}
		if prime {
			ns = append(ns, p)
		}
	}
	for k := 2; k <= 20; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	seen := make([]bool, 1<<20+1)
	for _, n := range ns {
		for _, seed := range []int64{0, 1, -7} {
			clear(seen[:n])
			for i, x := range permOrder(n, seed) {
				if x < 0 || x >= n || seen[x] {
					t.Fatalf("n=%d seed=%d: position %d maps to %d, out of range or taken", n, seed, i, x)
				}
				seen[x] = true
			}
		}
	}
}

// TestPermIsKeyed: one key replays one order, and two keys give two.
func TestPermIsKeyed(t *testing.T) {
	for _, n := range []int{10, 1000, 65537} {
		a, b := permOrder(n, 3), permOrder(n, 3)
		if !slices.Equal(a, b) {
			t.Errorf("n=%d: the same key gave two orders", n)
		}
		if c := permOrder(n, 4); slices.Equal(a, c) {
			t.Errorf("n=%d: keys 3 and 4 gave the same order", n)
		}
	}
}
