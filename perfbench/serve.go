package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"singlingout/internal/obs"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

// serve-hot and serve-fresh run an in-process query server on loopback
// with the laplace backend and a durable WAL (fsync per entry). Two
// analysts each hold one connection and run a closed loop: each sends
// its next batch of 8 queries when the previous reply arrives.
//
// serve-hot draws queries Zipf(1.3) from a shared pool of 64 and repeats
// the previous batch verbatim 25% of the time (loadgen's default shape),
// so nearly every query is a cache hit and the ledger and WAL are almost
// idle. serve-fresh draws every query fresh, so nearly every query
// misses the cache, runs the backend and spends budget, and every
// request appends and fsyncs one WAL entry.
const (
	serveN        = 96
	serveP        = 0.5
	serveAnalysts = 2
	serveBatch    = 8
	servePool     = 64
	serveZipf     = 1.3
	serveRepeat   = 0.25
	serveBackend  = "laplace"
)

type analyst struct {
	name      string
	client    *remote.Oracle
	transport *http.Transport
	batches   [][][]int
	answers   [][]float64
	errs      []error
	lat       []time.Duration
}

type serveRound struct {
	fresh    bool
	cfg      remote.ServerConfig
	srv      *remote.Server
	hs       *http.Server
	served   chan error
	walDir   string
	tr       *tracer
	analysts []*analyst
}

func newServeRound(fresh bool) func(context.Context, env) (round, error) {
	return func(ctx context.Context, e env) (round, error) {
		return startServe(ctx, e, fresh, nil)
	}
}

// startServe starts the server, dials both analysts and draws their
// batches: everything before the first timed request. backends replaces
// the built-in backends when non-nil; tests use it to serve wrong answers.
func startServe(ctx context.Context, e env, fresh bool, backends []remote.Backend) (rd *serveRound, err error) {
	requests := 600
	if fresh {
		requests = 300
	}
	if e.tiny {
		requests = 12
	}
	walDir, err := os.MkdirTemp(e.dir, "perfbench-wal-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	r := &serveRound{
		fresh: fresh, walDir: walDir, tr: e.tr,
		cfg: remote.ServerConfig{
			N: serveN, Seed: e.seed, P: serveP,
			WALPath: filepath.Join(walDir, "ledger.wal"), WALSync: true,
			Backends: backends, Registry: reg,
		},
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.tr != nil {
		if backends == nil {
			backends = remote.Builtins()
		}
		r.cfg.Backends = nil
		for _, b := range backends {
			r.cfg.Backends = append(r.cfg.Backends, timedBackend{inner: b, tr: r.tr})
		}
	}
	if r.srv, err = remote.NewServer(r.cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = r.srv.Handler()
	if r.tr != nil {
		h = handlerSpans{inner: h, tr: r.tr}
	}
	r.hs = &http.Server{Handler: h}
	r.served = make(chan error, 1)
	//lint:ignore boundedgo HTTP accept loop; close shuts it down and waits for it
	go func() { r.served <- r.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	pool := query.RandomSubsets(par.RNG(e.seed, 0), serveN, servePool)
	for a := 0; a < serveAnalysts; a++ {
		an := &analyst{name: fmt.Sprintf("analyst%d", a), transport: &http.Transport{}}
		var rt http.RoundTripper = an.transport
		if r.tr != nil {
			rt = spanHeaders{inner: rt}
		}
		r.analysts = append(r.analysts, an)
		an.client, err = remote.Dial(ctx, base, remote.Options{
			Backend: serveBackend, Analyst: an.name, Client: &http.Client{Transport: rt}, Registry: reg,
		})
		if err != nil {
			return nil, err
		}
		rng := par.RNG(e.seed, a+1)
		an.batches = drawBatches(rng, fresh, pool, requests)
		an.answers = make([][]float64, requests)
		an.errs = make([]error, requests)
		an.lat = make([]time.Duration, requests)
	}
	return r, nil
}

// drawBatches draws one analyst's batches: fresh random subsets, or Zipf
// picks from the shared pool with verbatim repeats.
func drawBatches(rng *rand.Rand, fresh bool, pool [][]int, requests int) [][][]int {
	batches := make([][][]int, requests)
	zipf := rand.NewZipf(rng, serveZipf, 1, uint64(len(pool)-1))
	for i := range batches {
		switch {
		case fresh:
			batches[i] = query.RandomSubsets(rng, serveN, serveBatch)
		case i > 0 && rng.Float64() < serveRepeat:
			batches[i] = batches[i-1]
		default:
			b := make([][]int, serveBatch)
			for q := range b {
				b[q] = pool[zipf.Uint64()]
			}
			batches[i] = b
		}
	}
	return batches
}

func (r *serveRound) run(ctx context.Context, root int64) ([]time.Duration, int) {
	var wg sync.WaitGroup
	for _, an := range r.analysts {
		wg.Add(1)
		//lint:ignore boundedgo one closed-loop client per analyst, joined below
		go func() {
			defer wg.Done()
			for i, b := range an.batches {
				actx := ctx
				var sp active
				if r.tr != nil {
					sp = r.tr.begin("remote.client", root, 0)
					actx = withSpan(ctx, sp.id, sp.op)
				}
				t0 := time.Now()
				an.answers[i], an.errs[i] = an.client.Answer(actx, b)
				an.lat[i] = time.Since(t0)
				if r.tr != nil {
					r.tr.end(sp, int64(len(b)))
				}
			}
		}()
	}
	wg.Wait()
	var ops []time.Duration
	// A shed attempt is a failure even when the client's retry succeeds.
	failed := int(r.cfg.Registry.Counter(remote.MetricShed).Value())
	for _, an := range r.analysts {
		ops = append(ops, an.lat...)
		for _, err := range an.errs {
			if err != nil {
				failed++
			}
		}
	}
	return ops, failed
}

// check compares every answer with the same deterministic oracle run in
// process over remote.Dataset(seed, n, p), replays the fetched ledger
// through remote.ReplayLedger, and on serve-fresh restarts a server on
// the WAL and requires the same totals.
func (r *serveRound) check(ctx context.Context, _ map[string]int64, counts map[string]float64) (outcome, error) {
	out := outcome{rates: map[string]ratio{}}
	c := r.cfg.Registry.Snapshot().Counters
	hits, misses := float64(c[remote.MetricCacheHits]), float64(c[remote.MetricCacheMisses])
	counts["remote.cache_hits"] = hits
	counts["remote.cache_misses"] = misses
	counts["remote.requests"] = float64(c[remote.MetricRequests])
	counts["remote.budget_spent"] = float64(c[remote.MetricBudgetSpent])
	counts["remote.shed"] = float64(c[remote.MetricShed])
	counts["remote.retries"] = float64(c[remote.MetricClientRetries])
	counts["wal.appends"] = float64(c[remote.MetricWALAppends])
	add(out.rates, "cache hit ratio", hits, hits+misses)
	// Sheds are retried by the client; each one is a failed attempt.
	if shed := counts["remote.shed"]; shed > 0 {
		add(out.rates, "shed per request", shed, counts["remote.requests"])
	}

	want := &query.StickyLaplace{X: remote.Dataset(r.cfg.Seed, serveN, serveP), Eps: 1, Seed: r.cfg.Seed}
	h := fnv.New64a()
	for _, an := range r.analysts {
		for i, b := range an.batches {
			if an.errs[i] != nil {
				continue // counted in failed
			}
			exp, err := want.Answer(ctx, b)
			if err != nil {
				return out, err
			}
			for q := range b {
				if math.Float64bits(an.answers[i][q]) != math.Float64bits(exp[q]) {
					return out, fmt.Errorf("%s request %d query %d: server answered %v, in-process oracle %v",
						an.name, i, q, an.answers[i][q], exp[q])
				}
				fmt.Fprintf(h, "%x\n", math.Float64bits(exp[q]))
			}
		}
	}
	out.digest = h.Sum64()

	lr, err := r.analysts[0].client.FetchLedger(ctx, "")
	if err != nil {
		return out, err
	}
	replayed, err := remote.ReplayLedger(lr.Entries)
	if err != nil {
		return out, err
	}
	if !sameTotals(replayed, lr.Totals) {
		return out, fmt.Errorf("ledger replays to %v, server reports %v", replayed, lr.Totals)
	}
	spent := 0
	for _, v := range lr.Totals {
		spent += v
	}
	if float64(spent) != counts["remote.budget_spent"] {
		return out, fmt.Errorf("ledger totals sum to %d, budget_spent counter is %v", spent, counts["remote.budget_spent"])
	}
	if err := r.stop(); err != nil {
		return out, err
	}
	if st, err := os.Stat(r.cfg.WALPath); err == nil {
		counts["wal.bytes"] = float64(st.Size())
	}
	if !r.fresh {
		return out, nil
	}
	cfg := r.cfg
	cfg.Registry = obs.NewRegistry()
	t0 := time.Now()
	srv, err := remote.NewServer(cfg)
	if err != nil {
		return out, fmt.Errorf("restart on the WAL: %w", err)
	}
	counts["wal.replay_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	_, totals := srv.Ledger("")
	if err := srv.Close(); err != nil {
		return out, err
	}
	if !sameTotals(totals, lr.Totals) {
		return out, fmt.Errorf("server restarted on the WAL reports totals %v, before restart %v", totals, lr.Totals)
	}
	return out, nil
}

func sameTotals(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// stop shuts the HTTP server down, waits for its accept loop, and closes
// the server's WAL. It is idempotent.
func (r *serveRound) stop() error {
	var errs []error
	for _, an := range r.analysts {
		an.transport.CloseIdleConnections()
	}
	if r.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, r.hs.Shutdown(ctx))
		cancel()
		if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		r.hs = nil
	}
	if r.srv != nil {
		errs = append(errs, r.srv.Close())
		r.srv = nil
	}
	return errors.Join(errs...)
}

func (r *serveRound) close() error {
	err := r.stop()
	return errors.Join(err, os.RemoveAll(r.walDir))
}

// timedBackend wraps a backend so that every Answer call on its oracle
// is a remote.backend span under the handler span.
type timedBackend struct {
	inner remote.Backend
	tr    *tracer
}

func (b timedBackend) Name() string { return b.inner.Name() }

func (b timedBackend) Open(cfg remote.ServerConfig, x []int64) (query.Oracle, error) {
	o, err := b.inner.Open(cfg, x)
	if err != nil {
		return nil, err
	}
	return timedOracle{inner: o, tr: b.tr, name: "remote.backend"}, nil
}

// Headers that carry the client span across the wire to the handler.
const (
	headerSpan = "X-Perfbench-Span"
	headerOp   = "X-Perfbench-Op"
)

// spanHeaders stamps the client span from the request context on every
// request, so the handler span can name it as its parent.
type spanHeaders struct{ inner http.RoundTripper }

func (s spanHeaders) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, op := spanFrom(req.Context()); id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(headerSpan, strconv.FormatInt(id, 10))
		req.Header.Set(headerOp, strconv.FormatInt(op, 10))
	}
	return s.inner.RoundTrip(req)
}

// handlerSpans times query POSTs through the server's handler as
// remote.handler spans.
type handlerSpans struct {
	inner http.Handler
	tr    *tracer
}

func (h handlerSpans) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost || !strings.HasPrefix(req.URL.Path, "/v1/query/") {
		h.inner.ServeHTTP(w, req)
		return
	}
	parent, _ := strconv.ParseInt(req.Header.Get(headerSpan), 10, 64)
	op, _ := strconv.ParseInt(req.Header.Get(headerOp), 10, 64)
	sp := h.tr.begin("remote.handler", parent, op)
	h.inner.ServeHTTP(w, req.WithContext(withSpan(req.Context(), sp.id, sp.op)))
	h.tr.end(sp, 0)
}
