package mp

import (
	"context"
	"errors"
	"math"
	"testing"

	"sessionproblem/internal/fault"
	"sessionproblem/internal/sim"
)

// tag is a broadcast body naming its sender and the sender's broadcast
// index.
type tag struct{ from, k int }

// tagger broadcasts a fresh tag at each of its first sends steps and stays
// busy for quiet more steps, so every copy sent to it arrives before it
// idles. It counts each tag it receives, and keeps every message whose From
// disagrees with its body.
type tagger struct {
	id, sends, quiet, step int
	got                    map[tag]int
	mismatched             []Message
}

func (g *tagger) Idle() bool { return g.step >= g.sends+g.quiet }

func (g *tagger) Step(received []Message) any {
	for _, m := range received {
		if b, ok := m.Body.(tag); ok && b.from == m.From {
			g.got[b]++
		} else {
			g.mismatched = append(g.mismatched, m)
		}
	}
	g.step++
	if g.step <= g.sends {
		return tag{g.id, g.step - 1}
	}
	return nil
}

func taggers(n, sends, quiet int) (*System, []*tagger) {
	sys := &System{}
	var gs []*tagger
	for p := 0; p < n; p++ {
		g := &tagger{id: p, sends: sends, quiet: quiet, got: map[tag]int{}}
		gs = append(gs, g)
		sys.Procs = append(sys.Procs, g)
		sys.PortProcs = append(sys.PortProcs, p)
	}
	return sys, gs
}

// lockstep steps every process every tick, so all senders broadcast on the
// same ticks, and delays deliveries by 1..4 ticks by (src, dst): each sender
// has several broadcasts in flight, and copies of different broadcasts from
// one sender land on the same tick.
type lockstep struct{}

func (lockstep) Gap(int) sim.Duration            { return 1 }
func (lockstep) Delay(src, dst int) sim.Duration { return sim.Duration(1 + (src+dst)%4) }

// requireNoBody fails if the scratch still holds a message body or a
// buffered message after a run.
func requireNoBody(t *testing.T, sc *Scratch) {
	t.Helper()
	if len(sc.msgs.entries) != 0 || len(sc.msgs.free) != 0 {
		t.Errorf("message table holds %d entries and %d free indices after the run", len(sc.msgs.entries), len(sc.msgs.free))
	}
	for i, e := range sc.msgs.entries[:cap(sc.msgs.entries)] {
		if e != (msgEntry{}) {
			t.Fatalf("message table entry %d still holds %+v after the run", i, e)
		}
	}
	for p, buf := range sc.buffers[:cap(sc.buffers)] {
		if buf != nil {
			t.Fatalf("process %d's buffer still holds %v after the run", p, buf)
		}
	}
}

// TestDeliveryCarriesItsOwnMessage: with same-tick broadcasts from every
// sender, several broadcasts in flight per sender, and injected drops,
// duplicates and late deliveries, every delivery hands its destination the
// sender and body of the broadcast it belongs to, exactly as many times as
// the injector says.
func TestDeliveryCarriesItsOwnMessage(t *testing.T) {
	const n, sends = 5, 20
	effect := func(src, dst int, at sim.Time) fault.DeliveryEffect {
		if src == 2 && at == 4 {
			return fault.DeliveryEffect{Kind: fault.MessageDrop} // every copy of one broadcast
		}
		switch (src + 2*dst + int(at)) % 7 {
		case 0:
			return fault.DeliveryEffect{Kind: fault.MessageDrop}
		case 1:
			return fault.DeliveryEffect{Kind: fault.MessageDuplicate, DuplicateDelay: 3}
		case 2:
			return fault.DeliveryEffect{Kind: fault.LateDelivery, Delay: 6}
		}
		return fault.DeliveryEffect{}
	}
	var sc Scratch
	sys, gs := taggers(n, sends, 12)
	res, err := Run(sys, lockstep{}, Options{Injector: script{delivFn: effect}, Scratch: &sc})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	kinds := map[fault.Kind]int{}
	for _, f := range res.Faults {
		kinds[f.Kind]++
	}
	if kinds[fault.MessageDrop] == 0 || kinds[fault.MessageDuplicate] == 0 || kinds[fault.LateDelivery] == 0 {
		t.Fatalf("faults %v: want drops, duplicates and late deliveries", kinds)
	}
	for dst, g := range gs {
		if len(g.mismatched) > 0 {
			t.Fatalf("process %d received messages whose sender disagrees with the body: %v", dst, g.mismatched)
		}
		for src := 0; src < n; src++ {
			for k := 0; k < sends; k++ {
				// Broadcast k leaves at the sender's (k+1)-th step, at tick k+1.
				want := 1
				switch effect(src, dst, sim.Time(k+1)).Kind {
				case fault.MessageDrop:
					want = 0
				case fault.MessageDuplicate:
					want = 2
				}
				if got := g.got[tag{src, k}]; got != want {
					t.Errorf("process %d received broadcast %d of %d %d times, want %d", dst, k, src, got, want)
				}
			}
		}
	}
	requireNoBody(t, &sc)
}

// TestFailedRunReleasesBodies: a run that stops with deliveries still in
// flight, at the step cap or on a cancelled context, leaves no body in the
// scratch either.
func TestFailedRunReleasesBodies(t *testing.T) {
	var sc Scratch
	sys, _ := taggers(4, 50, 0)
	if _, err := Run(sys, lockstep{}, Options{MaxSteps: 30, Scratch: &sc}); !errors.Is(err, ErrNoTermination) {
		t.Fatalf("capped run: err %v, want ErrNoTermination", err)
	}
	requireNoBody(t, &sc)

	sys, _ = taggers(4, 1<<20, 0)
	ctx := cancelledLater{Context: context.Background(), polls: new(int)}
	if _, err := RunContext(ctx, sys, lockstep{}, Options{MaxSteps: 1 << 22, Scratch: &sc}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err %v, want context.Canceled", err)
	}
	requireNoBody(t, &sc)
}

// cancelledLater is a context that passes the run's entry check and is
// cancelled at every later poll.
type cancelledLater struct {
	context.Context
	polls *int
}

func (c cancelledLater) Err() error {
	if *c.polls++; *c.polls > 1 {
		return context.Canceled
	}
	return nil
}

// TestMessageTableHoldsInFlightOnly: a long two-process run sends 20,000
// broadcasts, but only a handful are in flight at once, and the table
// reuses their entries instead of growing. Every copy of the broadcasts
// sent on even ticks is dropped; such a broadcast frees its entry at once.
func TestMessageTableHoldsInFlightOnly(t *testing.T) {
	var sc Scratch
	sys, _ := taggers(2, 10_000, 8)
	dropEven := script{delivFn: func(_, _ int, at sim.Time) fault.DeliveryEffect {
		if at%2 == 0 {
			return fault.DeliveryEffect{Kind: fault.MessageDrop}
		}
		return fault.DeliveryEffect{}
	}}
	res, err := Run(sys, lockstep{}, Options{Scratch: &sc, DiscardSteps: true, Injector: dropEven})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.MessagesSent != 20_000 {
		t.Fatalf("MessagesSent = %d, want 20000", res.MessagesSent)
	}
	// Each sender broadcasts every tick and its copies arrive within 4.
	if c := cap(sc.msgs.entries); c > 16 {
		t.Errorf("message table grew to %d entries for at most 10 broadcasts in flight", c)
	}
}

// TestMsgIndexNeverWraps: an index past math.MaxInt32 is an error, not a
// wrapped int32.
func TestMsgIndexNeverWraps(t *testing.T) {
	if i, err := msgIndex(math.MaxInt32); err != nil || i != math.MaxInt32 {
		t.Errorf("msgIndex(MaxInt32) = %d, %v", i, err)
	}
	if _, err := msgIndex(math.MaxInt32 + 1); !errors.Is(err, errTableFull) {
		t.Errorf("msgIndex(MaxInt32+1): err %v, want errTableFull", err)
	}
}
