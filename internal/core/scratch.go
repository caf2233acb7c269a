package core

import (
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// RunScratch bundles the executor scratch spaces for both system models so a
// worker can hold one reusable object regardless of which runner it calls.
// The zero value is ready to use. A scratch holds capacity only: no Report
// points into it, so aggregating callers (the harness sweeps) reuse one
// scratch per worker for the whole sweep.
type RunScratch struct {
	SM sm.Scratch
	MP mp.Scratch
}

func smOptions(m timing.Model, rs *RunScratch) sm.Options {
	opts := sm.Options{WindowHint: m.MaxIncrement()}
	if rs != nil {
		opts.Scratch = &rs.SM
	}
	return opts
}

func mpOptions(m timing.Model, rs *RunScratch) mp.Options {
	opts := mp.Options{WindowHint: m.MaxIncrement()}
	if rs != nil {
		opts.Scratch = &rs.MP
	}
	return opts
}
