package sim

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64).
// It is used instead of math/rand so that schedules are reproducible across
// Go versions and so that independent streams can be forked cheaply.
type RNG struct {
	state uint64
	draws uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.draws++
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Draws reports how many raw 64-bit values have been drawn since the
// generator was created. The seed-group runner uses it to detect RNG-free
// runs: if a whole run drew nothing, the trajectory is seed-independent
// and its result can be shared across seeds instead of being recomputed.
// Zero-width draws — code paths like DurationBetween with lo == hi that
// return without consuming the stream — intentionally do not count.
func (r *RNG) Draws() uint64 { return r.draws }

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	max := uint64(math64MaxInt63) - uint64(math64MaxInt63)%uint64(n)
	for {
		v := r.Uint64() >> 1
		if v < max {
			return int64(v % uint64(n))
		}
	}
}

const math64MaxInt63 = 1<<63 - 1

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	return int(r.Int63n(int64(n)))
}

// DurationBetween returns a uniform Duration in [lo, hi]. It panics if
// lo > hi. Infinite hi is not supported; callers must cap unbounded ranges
// before drawing.
func (r *RNG) DurationBetween(lo, hi Duration) Duration {
	if lo > hi {
		panic("sim: DurationBetween with lo > hi")
	}
	if hi.IsInfinite() {
		panic("sim: DurationBetween with infinite hi; cap the range first")
	}
	if lo == hi {
		return lo
	}
	return lo + Duration(r.Int63n(int64(hi-lo)+1))
}

// Fork returns a new independent generator derived from this one. The parent
// stream advances by one value.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
