package main

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"singlingout/internal/dataset"
)

// maxKeptSpans bounds the span file: layer totals count every span, but
// only the first maxKeptSpans are kept for writing out.
const maxKeptSpans = 200_000

// span is one recorded call across a layer boundary. An aggregate span
// stands for Calls per-record sampler draws, and Busy is the time spent
// inside them (see flush). Self is the span's duration minus the part of it that its
// children cover (for an aggregate, Self = Busy).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     int64  `json:"op"` // the trial, solve or request the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
	Items  int64  `json:"items,omitempty"` // queries in a backend batch
	Agg    bool   `json:"aggregate,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Self   int64  `json:"self_ns"`
}

// layerStat sums the spans of one name.
type layerStat struct {
	Calls   int64 `json:"calls"`
	Items   int64 `json:"items"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// tracer records spans in memory. It is safe for concurrent use; spans
// are processed (self times, layer totals) once per round by endRound.
type tracer struct {
	epoch  time.Time
	clock  time.Duration // see clockCost
	nextID atomic.Int64

	mu      sync.Mutex
	pending []span

	kept    []span
	dropped int
	layers  map[string]*layerStat
	rounds  int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), clock: clockCost(), layers: map[string]*layerStat{}}
}

// active is a span that has begun and not yet ended.
type active struct {
	id, parent, op int64
	name           string
	start          time.Time
}

// begin starts a span. An op of 0 starts a new operation, identified by
// the span's own id.
func (t *tracer) begin(name string, parent, op int64) active {
	id := t.nextID.Add(1)
	if op == 0 {
		op = id
	}
	return active{id: id, parent: parent, op: op, name: name, start: time.Now()}
}

// end records a finished span; items is the work it carried (0 if none).
func (t *tracer) end(a active, items int64) {
	end := time.Now()
	t.add(span{
		ID: a.id, Parent: a.parent, Name: a.name, Op: a.op,
		Start: a.start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Calls: 1, Items: items,
	})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.pending = append(t.pending, s)
	t.mu.Unlock()
}

// drawSample is the share of per-record draws that are timed: one in
// drawSample. A clock read costs about a third of a survey-record draw
// (about 58 ns against 165 ns on a 2-core Xeon VM), so timing every draw
// would nearly double the sampler's time in a traced run.
const drawSample = 8

// draws aggregates per-record sampler calls into a count and an estimated
// busy time, not a span each. It is used from one goroutine at a time.
type draws struct {
	calls, timed int64
	busy         time.Duration // summed over the timed draws
	first, last  time.Time
	clock        time.Duration // a clock read's share of each timed draw
}

// clockCost is the median time a pair of clock reads measures around
// nothing: the part of a timed interval the clock itself adds.
func clockCost() time.Duration {
	c := make([]time.Duration, 1001)
	for i := range c {
		t0 := time.Now()
		c[i] = time.Since(t0)
	}
	slices.Sort(c)
	return c[len(c)/2]
}

// draw calls inner, timing one call in drawSample.
func (d *draws) draw(inner func(*rand.Rand) dataset.Record, rng *rand.Rand) dataset.Record {
	d.calls++
	if (d.calls-1)%drawSample != 0 {
		return inner(rng)
	}
	t0 := time.Now()
	rec := inner(rng)
	t1 := time.Now()
	if d.timed == 0 {
		d.first = t0
	}
	d.timed++
	d.busy += max(0, t1.Sub(t0)-d.clock)
	d.last = t1
	return rec
}

// flush records the draws made since the last flush as one aggregate
// child span of parent, and resets d. The span's busy time is the timed
// draws' mean times the number of draws; Start and End are the first and
// last timed draw.
func (t *tracer) flush(name string, parent, op int64, d *draws) {
	if d.timed == 0 {
		return
	}
	t.add(span{
		ID: t.nextID.Add(1), Parent: parent, Name: name, Op: op,
		Start: d.first.Sub(t.epoch).Nanoseconds(), End: d.last.Sub(t.epoch).Nanoseconds(),
		Calls: d.calls, Agg: true, Busy: d.busy.Nanoseconds() * d.calls / d.timed,
	})
	*d = draws{clock: d.clock}
}

// endRound computes the self time of every span recorded since the last
// call, adds them to the layer totals, and keeps them for the span file.
// Every span of the round must have ended.
func (t *tracer) endRound() {
	t.mu.Lock()
	spans := t.pending
	t.pending = nil
	t.mu.Unlock()
	selfTimes(spans)
	for _, s := range spans {
		l := t.layers[s.Name]
		if l == nil {
			l = &layerStat{}
			t.layers[s.Name] = l
		}
		l.Calls += s.Calls
		l.Items += s.Items
		if s.Agg {
			l.TotalNs += s.Busy
		} else {
			l.TotalNs += s.End - s.Start
		}
		l.SelfNs += s.Self
	}
	room := maxKeptSpans - len(t.kept)
	if room < len(spans) {
		t.dropped += len(spans) - max(room, 0)
		spans = spans[:max(room, 0)]
	}
	t.kept = append(t.kept, spans...)
	t.rounds++
}

// selfTimes fills in Self: a span's duration minus the union of its
// children's intervals (clipped to the span) and the busy time of its
// aggregate children. Children that run concurrently, such as a server's
// parallel backend calls, are counted once where they overlap.
func selfTimes(spans []span) {
	type interval struct{ lo, hi int64 }
	kids := map[int64][]interval{}
	busy := map[int64]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if s.Agg {
			busy[s.Parent] += s.Busy
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
	}
	for i := range spans {
		s := &spans[i]
		if s.Agg {
			s.Self = s.Busy
			continue
		}
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c.lo, reach), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered - busy[s.ID]
	}
}

// spanKey carries the current span and op through a context, so that the
// server-side wrappers can name their parent.
type spanKey struct{}

type spanRef struct{ id, op int64 }

func withSpan(ctx context.Context, id, op int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, op})
}

func spanFrom(ctx context.Context) (id, op int64) {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r.id, r.op
}
