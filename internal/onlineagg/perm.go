package onlineagg

import "math/bits"

// perm is a keyed pseudorandom permutation of [0, n), stored nowhere: a
// six-round Feistel network over k-bit strings, 2^k the smallest power of
// two at least n, with cycle-walking (Black and Rogaway, CT-RSA 2002) —
// an image at or past n is enciphered again, fewer than two encipherings
// a position on average. The halves are ⌈k/2⌉ and ⌊k/2⌋ bits; a round
// xors one with the top bits of splitmix64's mix of the other and its
// key. DESIGN.md ("The permutation") says why six rounds, not four.
type perm struct {
	n                        int
	keys                     [6]uint64
	loBits, loShift, hiShift uint8 // the shifts are 64 less each half's bits
}

// newPerm returns the permutation of [0, n) that seed keys; its round keys
// are the splitmix64 stream from seed.
func newPerm(n int, seed int64) perm {
	k := uint8(bits.Len64(uint64(max(n, 1) - 1)))
	p := perm{n: n, loBits: k / 2}
	p.loShift, p.hiShift = 64-p.loBits, 64-(k-p.loBits)
	for i := range p.keys {
		p.keys[i] = mix64(uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15)
	}
	return p
}

// mix64 is splitmix64's output function, a bijective scramble of z's bits.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fill sets each dst[j] to the image of position from+j, which must be in
// [0, n); it holds the keys in locals, being the walk's hot loop.
func (p *perm) fill(dst []int, from int) {
	k0, k1, k2, k3, k4, k5 := p.keys[0], p.keys[1], p.keys[2], p.keys[3], p.keys[4], p.keys[5]
	lb, ls, hs, n := p.loBits, p.loShift, p.hiShift, uint64(p.n)
	lm := uint64(1)<<lb - 1
	for j := range dst {
		i := uint64(from + j)
		lo, hi := i&lm, i>>lb
		for {
			hi ^= mix64(lo^k0) >> hs
			lo ^= mix64(hi^k1) >> ls
			hi ^= mix64(lo^k2) >> hs
			lo ^= mix64(hi^k3) >> ls
			hi ^= mix64(lo^k4) >> hs
			lo ^= mix64(hi^k5) >> ls
			if x := hi<<lb | lo; x < n {
				dst[j] = int(x)
				break
			}
		}
	}
}
