// Package sim provides the virtual-time kernel used by every simulator in
// this repository: an integer tick clock, a deterministic event queue, and a
// seedable pseudo-random generator.
//
// All timed computations in the paper are sequences of steps together with a
// nondecreasing real-time mapping T. Using int64 ticks instead of floating
// point keeps every schedule exactly reproducible and makes admissibility
// checks exact (no epsilon comparisons).
package sim

import (
	"math"
	"strconv"
)

// Time is an absolute virtual time in ticks. Computations start at time 0.
type Time int64

// Duration is a span of virtual time in ticks.
type Duration int64

// Infinity is a sentinel used for "no upper bound" constraints (for example
// c2 in the sporadic model). It is large enough that no admissible schedule
// produced by this package ever reaches it.
const Infinity Duration = math.MaxInt64 / 4

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String renders the time as a plain tick count.
func (t Time) String() string { return strconv.FormatInt(int64(t), 10) }

// String renders the duration, using the symbol ∞ for Infinity.
func (d Duration) String() string {
	if d >= Infinity {
		return "∞"
	}
	return strconv.FormatInt(int64(d), 10)
}

// IsInfinite reports whether d represents an unbounded constraint.
func (d Duration) IsInfinite() bool { return d >= Infinity }

// MinDuration returns the smaller of a and b.
func MinDuration(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// MaxDuration returns the larger of a and b.
func MaxDuration(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
