// Command perfbench is the repository's benchmark. It runs one seeded
// workload for a fixed wall-clock budget, checks every output the
// program produced, and prints each metric by name with its unit. The
// last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// harness wraps the calls it makes into each layer, records spans, and
// reports per-layer counts and self times instead. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload pso-kanon --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"singlingout/internal/obs"
	"singlingout/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A workload builds rounds. A round is the workload's fixed unit of
// measured work, built from one round seed; run_s is the median round.
type workload struct {
	name string
	// concurrent workloads run layers on several goroutines at once, so
	// their self times do not add up to run_s.
	concurrent bool
	// newRound builds one round's inputs (timed as set-up). env.tr is
	// non-nil when the round will be traced.
	newRound func(ctx context.Context, env env) (round, error)
}

// env is what a round is built from.
type env struct {
	seed int64
	tiny bool    // test-sized inputs
	dir  string  // scratch directory for WAL files
	tr   *tracer // nil in untraced rounds
}

// round is one unit of measured work and the outputs it produced.
type round interface {
	// run performs the measured work under the span root (0 when
	// untraced) and returns each operation's latency and how many
	// operations failed.
	run(ctx context.Context, root int64) (ops []time.Duration, failed int)
	// check verifies the outputs of run. delta holds the obs counters
	// the program moved during run. It returns the round's outcome and
	// adds the round's per-layer counts to counts.
	check(ctx context.Context, delta map[string]int64, counts map[string]float64) (outcome, error)
	close() error
}

// outcome is what a round found. rates are printed, not gated; digest
// hashes the round's deterministic outputs, so a traced round must give
// the same digest as its untraced twin.
type outcome struct {
	rates  map[string]ratio
	digest uint64
}

type ratio struct{ num, den float64 }

var workloads = []workload{
	{name: "pso-kanon", newRound: newPSORound},
	{name: "lp-recon", newRound: newLPRound},
	{name: "serve-hot", concurrent: true, newRound: newServeRound(false)},
	{name: "serve-fresh", concurrent: true, newRound: newServeRound(true)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one benchmark run.
type config struct {
	workload workload
	seed     int64
	budget   time.Duration
	traced   bool
	dir      string
	tiny     bool
	// minOps is the fewest operations a run measures, so that the p99
	// has at least ten samples beyond it.
	minOps int
}

// minRounds is the fewest rounds a run measures, so that medians over
// rounds exist.
const minRounds = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pso-kanon, lp-recon, serve-hot or serve-fresh")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured wall-clock budget")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	dir := fs.String("dir", ".bench_build", "scratch directory for WAL files and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds >= 0, --trace 0 or 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{
		workload: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, dir: *dir, minOps: 1000,
	}
	res, err := measure(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.traced {
		path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))
		if err := writeSpans(path, cfg, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s (%d kept, %d dropped)\n", path, len(res.tr.kept), res.tr.dropped)
	}
	printReport(stdout, cfg, res)
	for _, e := range res.checkErrs {
		fmt.Fprintf(stderr, "perfbench: %s: correctness: %v\n", w.name, e)
	}
	if err := json.NewEncoder(stdout).Encode(res.summary(cfg.traced)); err != nil {
		return 1
	}
	if len(res.checkErrs) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// roundStats is one measured round.
type roundStats struct {
	setup, run        time.Duration
	ops               []time.Duration
	failed            int
	alloc             uint64
	live              uint64 // heap the round holds after its work, over the heap before its set-up
	gcCycles, gcPause float64
	counts            map[string]float64
	out               outcome
	err               error // the round's outputs failed their check
}

// result is one benchmark run: its untraced rounds, and in a traced run
// the tracer that timed the traced twin of each round.
type result struct {
	host      host
	rounds    []roundStats
	tracedRun []time.Duration // traced twin of each round
	tr        *tracer
	checkErrs []error
	elapsed   time.Duration
}

// measure runs rounds until the budget is spent and enough operations
// are measured. In a traced run every round runs twice on the same
// inputs, untraced and traced, alternating which goes first; the
// untraced twin gives the counts and the traced one the layer times, and
// the two must agree on their outcome.
func measure(ctx context.Context, cfg config) (*result, error) {
	obs.Default().SetEnabled(true)
	res := &result{host: fingerprint(cfg.dir)}
	if cfg.traced {
		res.tr = newTracer()
	}
	hardStop := 2*cfg.budget + 10*time.Second
	start := time.Now()
	ops := 0
	for r := 0; ; r++ {
		el := time.Since(start)
		if r >= minRounds && ((el >= cfg.budget && ops >= cfg.minOps) || el >= hardStop) {
			break
		}
		e := env{seed: par.SeedFor(cfg.seed, r), tiny: cfg.tiny, dir: cfg.dir}
		var st, tst roundStats
		var err error
		if cfg.traced && r%2 == 1 {
			if tst, err = tracedRound(ctx, cfg.workload, e, res.tr); err != nil {
				return nil, fmt.Errorf("traced round %d: %w", r, err)
			}
		}
		if st, err = oneRound(ctx, cfg.workload, e); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		if cfg.traced && r%2 == 0 {
			if tst, err = tracedRound(ctx, cfg.workload, e, res.tr); err != nil {
				return nil, fmt.Errorf("traced round %d: %w", r, err)
			}
		}
		res.rounds = append(res.rounds, st)
		ops += len(st.ops)
		if st.err != nil {
			res.checkErrs = append(res.checkErrs, fmt.Errorf("round %d: %w", r, st.err))
		}
		if cfg.traced {
			res.tracedRun = append(res.tracedRun, tst.run)
			if tst.err != nil {
				res.checkErrs = append(res.checkErrs, fmt.Errorf("traced round %d: %w", r, tst.err))
			} else if st.err == nil && tst.out.digest != st.out.digest {
				res.checkErrs = append(res.checkErrs, fmt.Errorf("round %d: traced outcome differs from untraced", r))
			}
		}
		if len(res.checkErrs) > 0 {
			break
		}
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// tracedRound runs the traced twin of a round.
func tracedRound(ctx context.Context, w workload, e env, tr *tracer) (roundStats, error) {
	e.tr = tr
	st, err := oneRound(ctx, w, e)
	tr.endRound()
	return st, err
}

// oneRound builds, runs, checks and closes one round.
func oneRound(ctx context.Context, w workload, e env) (roundStats, error) {
	var st roundStats
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := m0.HeapAlloc
	t0 := time.Now()
	rd, err := w.newRound(ctx, e)
	if err != nil {
		return st, err
	}
	st.setup = time.Since(t0)

	before := obs.Default().Snapshot()
	runtime.ReadMemStats(&m0)
	var root active
	if e.tr != nil {
		root = e.tr.begin("bench.run", 0, 0)
	}
	t1 := time.Now()
	st.ops, st.failed = rd.run(ctx, root.id)
	st.run = time.Since(t1)
	if e.tr != nil {
		e.tr.end(root, 0)
	}
	runtime.ReadMemStats(&m1)
	delta := obs.Default().Snapshot().Delta(before).Counters
	st.alloc = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = float64(m1.NumGC - m0.NumGC)
	st.gcPause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&m1)
	st.live = m1.HeapAlloc - min(base, m1.HeapAlloc)

	st.counts = map[string]float64{}
	for _, name := range obsCounts {
		st.counts[name] = float64(delta[name])
	}
	st.out, st.err = rd.check(ctx, delta, st.counts)
	if err := rd.close(); err != nil && st.err == nil {
		st.err = err
	}
	return st, nil
}

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// div is a ratio that is 0 when its base is 0.
func div(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (res *result) each(f func(roundStats) float64) []float64 {
	out := make([]float64, len(res.rounds))
	for i, r := range res.rounds {
		out[i] = f(r)
	}
	return out
}

func (res *result) attempted() (attempted, failed int) {
	for _, r := range res.rounds {
		attempted += len(r.ops)
		failed += r.failed
	}
	return attempted, failed
}

// latencies are the operation latencies of all rounds in ms, in the
// order they were measured.
func (res *result) latencies() []float64 {
	var lat []float64
	for _, r := range res.rounds {
		for _, d := range r.ops {
			lat = append(lat, float64(d.Nanoseconds())/1e6)
		}
	}
	return lat
}

// p99Block is the fewest samples a 99th percentile is taken over: ten
// lie beyond it.
const p99Block = 1000

// p99 splits lat into consecutive blocks of at least p99Block samples
// and returns the median of the blocks' 99th percentiles. A stall that
// hits a few blocks, such as a scheduling hiccup on a busy two-core
// host, then moves the result by no more than a few blocks' share.
func p99(lat []float64) float64 {
	blocks := max(1, len(lat)/p99Block)
	ps := make([]float64, blocks)
	for b := range ps {
		blk := append([]float64(nil), lat[b*len(lat)/blocks:(b+1)*len(lat)/blocks]...)
		sort.Float64s(blk)
		ps[b] = quantile(blk, 0.99)
	}
	return median(ps)
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"run_s", "s"}, {"req_p50_ms", "ms"},
	{"alloc_mb", "MB"}, {"live_heap_mb", "MB"},
}

func (res *result) endToEnd() map[string]float64 {
	lat := res.latencies()
	sort.Float64s(lat)
	return map[string]float64{
		"setup_s":      median(res.each(func(r roundStats) float64 { return r.setup.Seconds() })),
		"run_s":        median(res.each(func(r roundStats) float64 { return r.run.Seconds() })),
		"req_p50_ms":   quantile(lat, 0.50),
		"alloc_mb":     median(res.each(func(r roundStats) float64 { return float64(r.alloc) / 1e6 })),
		"live_heap_mb": median(res.each(func(r roundStats) float64 { return float64(r.live) / 1e6 })),
	}
}

// perLayer are the metrics of a traced run, in report order. Counts and
// times are per round (means over the run's rounds); every _ms time is a
// self time except pso.attack_ms, remote.client_ms and remote.handler_ms,
// which are totals (see README.md). req_p99_ms is the end-to-end tail
// latency; it is reported here, without a bound, because preemption of a
// small VM's vCPUs moves it by more than any bound the benchmark may set.
var perLayer = []metricDef{
	{"req_p99_ms", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"synth.sample_calls", "count"}, {"synth.sample_ms", "ms"},
	{"kanon.release_calls", "count"}, {"kanon.release_ms", "ms"},
	{"pso.attack_calls", "count"}, {"pso.attack_ms", "ms"},
	{"pso.attack_sample_calls", "count"}, {"pso.attack_sample_ms", "ms"},
	{"pso.score_ms", "ms"},
	{"pso.trials", "count"}, {"pso.isolations", "count"}, {"pso.successes", "count"}, {"pso.success_ratio", "ratio"},
	{"query.answer_calls", "count"}, {"query.answer_ms", "ms"},
	{"recon.newdecoder_ms", "ms"},
	{"recon.decode_calls", "count"}, {"recon.decode_ms", "ms"},
	{"recon.push_calls", "count"}, {"recon.push_ms", "ms"},
	{"lp.solves", "count"}, {"lp.pivots", "count"}, {"lp.phase1_pivots", "count"}, {"lp.dual_pivots", "count"},
	{"lp.refactorizations", "count"}, {"lp.warm_starts", "count"}, {"lp.warm_miss", "count"},
	{"recon.stream_cold_restarts", "count"},
	{"lp.pivots_per_solve", "count"}, {"lp.warm_hit_ratio", "ratio"},
	{"remote.client_ms", "ms"}, {"remote.handler_ms", "ms"}, {"remote.wire_ms", "ms"},
	{"remote.backend_calls", "count"}, {"remote.backend_queries", "count"}, {"remote.backend_ms", "ms"},
	{"remote.server_self_ms", "ms"}, {"remote.cache_hit_ratio", "ratio"},
	{"remote.requests", "count"}, {"remote.budget_spent", "count"}, {"remote.shed", "count"}, {"remote.retries", "count"},
	{"wal.appends", "count"}, {"wal.bytes", "bytes"}, {"wal.replay_ms", "ms"},
	{"bench.self_ms", "ms"}, {"trace.run_ms", "ms"}, {"trace.overhead_ms", "ms"},
}

// obsCounts are the obs counters reported per round under their own names.
var obsCounts = []string{
	"pso.trials", "pso.isolations", "pso.successes",
	"lp.solves", "lp.pivots", "lp.phase1_pivots", "lp.dual_pivots",
	"lp.refactorizations", "lp.warm_starts", "lp.warm_miss", "recon.stream_cold_restarts",
}

func (res *result) perLayer() map[string]float64 {
	rounds := float64(len(res.rounds))
	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	sum := func(name string) float64 {
		t := 0.0
		for _, r := range res.rounds {
			t += r.counts[name]
		}
		return t
	}
	for _, name := range obsCounts {
		m[name] = sum(name) / rounds
	}
	for _, name := range []string{
		"remote.requests", "remote.budget_spent", "remote.shed", "remote.retries",
		"wal.appends", "wal.bytes", "wal.replay_ms",
	} {
		m[name] = sum(name) / rounds
	}
	m["req_p99_ms"] = p99(res.latencies())
	m["runtime.gc_cycles"] = mean(res.each(func(r roundStats) float64 { return r.gcCycles }))
	m["runtime.gc_pause_ms"] = mean(res.each(func(r roundStats) float64 { return r.gcPause }))
	m["pso.success_ratio"] = div(sum("pso.successes"), sum("pso.trials"))
	m["lp.pivots_per_solve"] = div(sum("lp.pivots"), sum("lp.solves"))
	m["lp.warm_hit_ratio"] = div(sum("lp.warm_starts"), sum("lp.warm_starts")+sum("lp.warm_miss"))
	m["remote.cache_hit_ratio"] = div(sum("remote.cache_hits"), sum("remote.cache_hits")+sum("remote.cache_misses"))

	if res.tr == nil {
		return m
	}
	traced := float64(res.tr.rounds)
	layer := func(name string) layerStat {
		if l := res.tr.layers[name]; l != nil {
			return *l
		}
		return layerStat{}
	}
	ms := func(ns int64) float64 { return div(float64(ns)/1e6, traced) }
	calls := func(name string) float64 { return div(float64(layer(name).Calls), traced) }
	for _, name := range []string{"synth.sample", "kanon.release", "pso.attack", "pso.attack_sample",
		"query.answer", "recon.decode", "recon.push"} {
		m[name+"_calls"] = calls(name)
		m[name+"_ms"] = ms(layer(name).SelfNs)
	}
	// The attacker's own work between draws is too small to resolve
	// against the draws' estimated busy time, so its time is reported
	// whole, with the draws as the part of it pso.attack_sample_ms gives.
	m["pso.attack_ms"] = ms(layer("pso.attack").TotalNs)
	m["recon.newdecoder_ms"] = ms(layer("recon.newdecoder").SelfNs)
	m["pso.score_ms"] = ms(layer("pso.run").SelfNs)
	m["remote.client_ms"] = ms(layer("remote.client").TotalNs)
	m["remote.handler_ms"] = ms(layer("remote.handler").TotalNs)
	m["remote.wire_ms"] = ms(layer("remote.client").SelfNs)
	m["remote.server_self_ms"] = ms(layer("remote.handler").SelfNs)
	m["remote.backend_calls"] = calls("remote.backend")
	m["remote.backend_queries"] = div(float64(layer("remote.backend").Items), traced)
	m["remote.backend_ms"] = ms(layer("remote.backend").SelfNs)
	m["bench.self_ms"] = ms(layer("bench.run").SelfNs)
	var tracedMs []float64
	for _, d := range res.tracedRun {
		tracedMs = append(tracedMs, float64(d.Nanoseconds())/1e6)
	}
	m["trace.run_ms"] = mean(tracedMs)
	m["trace.overhead_ms"] = mean(tracedMs) - mean(res.each(func(r roundStats) float64 { return r.run.Seconds() * 1e3 }))
	return m
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (res *result) summary(traced bool) summary {
	defs, values := endToEnd, res.endToEnd()
	if traced {
		defs, values = perLayer, res.perLayer()
	}
	s := summary{Correct: len(res.checkErrs) == 0, Metrics: map[string]metricValue{}}
	s.Attempted, s.Failed = res.attempted()
	for _, d := range defs {
		s.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return s
}

// layerSum is the sum of every layer's self time per traced round; on a
// one-goroutine workload it equals trace.run_ms.
func (res *result) layerSum() float64 {
	t := int64(0)
	for _, l := range res.tr.layers {
		t += l.SelfNs
	}
	return div(float64(t)/1e6, float64(res.tr.rounds))
}

// printReport writes the human-readable report that precedes the JSON line.
func printReport(w io.Writer, cfg config, res *result) {
	h := res.host
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d trace=%t rounds=%d elapsed=%.1fs\n",
		cfg.workload.name, cfg.seed, cfg.traced, len(res.rounds), res.elapsed.Seconds())
	fmt.Fprintf(w, "host: gomaxprocs=%d numcpu=%d go=%s cpu=%q wal_fs=%s\n",
		h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.CPUModel, h.WALFS)
	rates := map[string]ratio{}
	for _, r := range res.rounds {
		for k, v := range r.out.rates {
			add(rates, k, v.num, v.den)
		}
	}
	keys := make([]string, 0, len(rates))
	for k := range rates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "outcome: %-34s %8.4f  (%g / %g)\n", k, div(rates[k].num, rates[k].den), rates[k].num, rates[k].den)
	}
	attempted, failed := res.attempted()
	fmt.Fprintf(w, "failed_frac = %g ratio (%d failed of %d attempted)\n", div(float64(failed), float64(attempted)), failed, attempted)
	lat := res.latencies()
	if len(lat) < p99Block {
		fmt.Fprintf(w, "warning: req_p99_ms from %d samples, fewer than %d\n", len(lat), p99Block)
	}
	fmt.Fprintf(w, "req latency samples = %d, req_p99_ms = %.6g ms (reported, not bounded)\n", len(lat), p99(lat))
	defs, values := endToEnd, res.endToEnd()
	if cfg.traced {
		defs, values = perLayer, res.perLayer()
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s = %.6g %s\n", d.name, values[d.name], d.unit)
	}
	if cfg.traced && !cfg.workload.concurrent {
		untraced := values["trace.run_ms"] - values["trace.overhead_ms"]
		fmt.Fprintf(w, "self-time sum %.3f ms per round; traced run %.3f ms; untraced run %.3f ms; tracing overhead %.3f ms\n",
			res.layerSum(), values["trace.run_ms"], untraced, values["trace.overhead_ms"])
	}
}

// spanFile is the traced run's span file.
type spanFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Host     host                  `json:"host"`
	Rounds   int                   `json:"rounds"`
	Dropped  int                   `json:"dropped"`
	Layers   map[string]*layerStat `json:"layers"`
	Spans    []span                `json:"spans"`
}

func writeSpans(path string, cfg config, res *result) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	err = json.NewEncoder(f).Encode(spanFile{
		Workload: cfg.workload.name, Seed: cfg.seed, Host: res.host,
		Rounds: res.tr.rounds, Dropped: res.tr.dropped, Layers: res.tr.layers, Spans: res.tr.kept,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return nil
}
