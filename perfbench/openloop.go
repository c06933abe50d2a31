package main

import "time"

// clock abstracts time for the open-loop generator so its due-time
// accounting can be tested without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

// spinBefore is how long before a due time the generator stops sleeping
// and spins: timer wake-ups run late by a fraction of a millisecond, which
// would otherwise count as the system's latency.
const spinBefore = time.Millisecond

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// schedule is an open-loop arrival schedule: batch i is due at
// start + i·interval, whatever happened to the batches before it.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// sendRecord is one open-loop send: when it was due, when the generator
// actually sent it, and when it was acknowledged.
type sendRecord struct {
	Due, Sent, Done time.Time
	Err             error
}

// latency is timed from the due time, so a stall that delays later sends
// is charged to every batch that had to wait for it.
func (r sendRecord) latency() time.Duration { return r.Done.Sub(r.Due) }

// lag is how late the generator sent the batch.
func (r sendRecord) lag() time.Duration { return r.Sent.Sub(r.Due) }

// runOpenLoop sends batch 0, 1, … over one connection on sched until the
// next batch would be due at or after until. It never skips a batch: one
// that is already late goes out as soon as the previous one returns.
func runOpenLoop(sched schedule, until time.Time, clk clock, send func(i int) error) []sendRecord {
	var out []sendRecord
	for i := 0; ; i++ {
		due := sched.due(i)
		if !due.Before(until) {
			return out
		}
		if due.After(clk.Now()) {
			clk.SleepUntil(due)
		}
		rec := sendRecord{Due: due, Sent: clk.Now()}
		rec.Err = send(i)
		rec.Done = clk.Now()
		out = append(out, rec)
	}
}
