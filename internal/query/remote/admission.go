package remote

import (
	"context"
	"fmt"
	"sync/atomic"

	"singlingout/internal/obs"
)

// admission is the server's overload gate: a bounded queue (admitted
// requests, waiting or running) in front of a bounded active set. enter
// either claims a queue slot immediately or sheds — it never blocks on a
// full queue, which is the difference between load shedding and letting
// latency grow without bound under overload.
type admission struct {
	queue   chan struct{} // cap = active + waiting room
	active  chan struct{} // cap = concurrent requests actually served
	waiting atomic.Int64  // queued-not-active count
	depth   *obs.Gauge    // qserver.queue_depth mirror of waiting
}

// errShed is the internal admission refusal; the handler maps it to a
// CodeOverloaded wire refusal with the retry hint.
var errShed = fmt.Errorf("admission queue full")

// newAdmission builds a gate with `active` concurrent slots (>= 1) and
// `wait` additional waiting slots (>= 0); NewServer's defaults ensure
// both.
func newAdmission(active, wait int, depth *obs.Gauge) *admission {
	return &admission{
		queue:  make(chan struct{}, active+wait),
		active: make(chan struct{}, active),
		depth:  depth,
	}
}

// enter admits the caller or refuses immediately: errShed when the queue
// is full, ctx.Err() when the caller gives up while waiting for an
// active slot. On nil the caller must leave() exactly once.
func (a *admission) enter(ctx context.Context) error {
	select {
	case a.queue <- struct{}{}:
	default:
		return errShed
	}
	// Admitted. Fast path: an active slot is free right now.
	select {
	case a.active <- struct{}{}:
		return nil
	default:
	}
	// Queued: visible in qserver.queue_depth until a slot frees up.
	a.depth.Set(float64(a.waiting.Add(1)))
	defer func() { a.depth.Set(float64(a.waiting.Add(-1))) }()
	select {
	case a.active <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-a.queue
		return ctx.Err()
	}
}

// leave releases the active slot and the queue slot claimed by enter.
func (a *admission) leave() {
	<-a.active
	<-a.queue
}
