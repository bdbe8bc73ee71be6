package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"singlingout/internal/diffix"
	"singlingout/internal/obs"
	"singlingout/internal/par"
	"singlingout/internal/query"
)

// Metric names recorded by the server into its registry.
const (
	MetricRequests       = "qserver.requests"
	MetricBatchQueries   = "qserver.batch_queries"
	MetricCacheHits      = "qserver.cache_hits"
	MetricCacheMisses    = "qserver.cache_misses"
	MetricBudgetDenied   = "qserver.budget_denied"
	MetricBudgetSpent    = "qserver.budget_spent"    // fresh queries charged, all analysts
	MetricBudgetRefunded = "qserver.budget_refunded" // fresh queries refunded on failed batches
	MetricErrors         = "qserver.errors"
	MetricLatency        = "qserver.latency_ns"
	MetricCacheSize      = "qserver.cache_size"
	MetricShed           = "qserver.shed"        // requests refused by admission control
	MetricQueueDepth     = "qserver.queue_depth" // admitted requests waiting for an active slot
	MetricWALAppends     = "qserver.wal_appends" // ledger entries durably logged
)

// ServerConfig configures a query server. The dataset is generated, not
// supplied: X = Dataset(Seed, N, P), so the /v1/meta the server advertises
// is consistent with its answers by construction.
type ServerConfig struct {
	N    int     // dataset size
	Seed int64   // dataset + sticky-noise seed
	P    float64 // Bernoulli parameter of the protected bit

	Eps       float64 // laplace backend: per-query epsilon
	SD        float64 // diffix backend: sticky noise standard deviation
	Threshold int     // diffix backend: low-count suppression bound

	Budget        int // per-analyst fresh-query budget, 0 = unlimited
	MaxBatch      int // largest accepted batch, 0 = default 4096
	MaxConcurrent int // server-wide active-request bound; 0 = default 16
	Workers       int // pool workers per fresh sub-batch, 0 = GOMAXPROCS

	// QueueDepth bounds the admission queue: requests admitted but
	// waiting for an active slot. Beyond MaxConcurrent+QueueDepth a
	// request is shed with CodeOverloaded instead of queuing unboundedly.
	// 0 = default 64, negative = no waiting room (shed when all active
	// slots are busy).
	QueueDepth int
	// RetryAfter is the backoff hint stamped on overload refusals
	// (Retry-After header + retry_after_ms body field); 0 = 50ms.
	RetryAfter time.Duration
	// Delay injects an artificial per-request service time before the
	// batch is processed — load/overload testing only (cmd/loadgen's
	// -inject-delay uses it to make shedding reproducible); 0 = none.
	Delay time.Duration

	// WALPath makes the ledger durable: every entry is appended to this
	// JSONL write-ahead log before it takes effect, and NewServer replays
	// an existing file through ReplayLedger so spent epsilon survives a
	// restart. Empty = in-memory only. The answer cache is never
	// persisted — after a restart, previously-asked queries charge again
	// (over-charging across restarts is the safe direction).
	WALPath string
	// WALSync fsyncs the WAL after every append (restart-over-crash
	// durability at a per-entry fsync cost; the file is always synced on
	// Close).
	WALSync bool

	// Backends is the oracle registry served under /v1/query/{name};
	// nil = Builtins() (exact, laplace, diffix).
	Backends []Backend

	Registry *obs.Registry // nil = obs.Default()
	Journal  *obs.Journal  // nil = no journal events
	Tracer   *obs.Tracer   // nil = obs.DefaultTracer(); server-side spans when enabled
}

// Server answers statistical queries over HTTP. It owns the only copy of
// the dataset; analysts see nothing but noisy (or exact, for the
// calibration backend) counting-query answers, per-analyst budget
// accounting, and an answer cache that makes repeated queries free — the
// reference architecture the paper's attacks are aimed at. The request
// path takes two short locks, never together: the answer cache's and the
// ledger's. The ledger optionally writes ahead to a durable log so a
// restart never forgets — and therefore never refunds — spent epsilon.
type Server struct {
	cfg      ServerConfig
	x        []int64
	backends map[string]query.Oracle
	names    []string
	handler  http.Handler
	tracer   *obs.Tracer
	lane     int // trace lane of the query handler

	cacheMu sync.Mutex
	cache   map[string]float64 // queryKey -> answer
	ledger  *ledger
	wal     *wal // nil without WALPath
	admit   *admission

	requests       *obs.Counter
	batchQueries   *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	budgetDenied   *obs.Counter
	budgetSpent    *obs.Counter
	budgetRefunded *obs.Counter
	errs           *obs.Counter
	shed           *obs.Counter
	walAppends     *obs.Counter
	latency        *obs.Histogram
	cacheSize      *obs.Gauge
	queueDepth     *obs.Gauge
}

// NewServer builds a Server from cfg, generating the dataset and opening
// the registered backends over it. When cfg.WALPath names an existing
// write-ahead log, the ledger is replayed from it (cross-checked with
// ReplayLedger) before the server accepts traffic; a log that does not
// replay cleanly fails construction rather than serving from a budget
// state that cannot be audited.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("remote: server needs a positive dataset size, got %d", cfg.N)
	}
	if cfg.P <= 0 || cfg.P >= 1 {
		return nil, fmt.Errorf("remote: P must be in (0,1), got %v", cfg.P)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 16
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 1
	}
	if cfg.SD <= 0 {
		cfg.SD = 1.5
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 8
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 64
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.DefaultTracer()
	}
	x := Dataset(cfg.Seed, cfg.N, cfg.P)
	regs := cfg.Backends
	if len(regs) == 0 {
		regs = Builtins()
	}
	backends, err := openBackends(cfg, x, regs)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		x:        x,
		backends: backends,
		tracer:   tracer,
		lane:     tracer.NewLane("qserver http"),
		cache:    make(map[string]float64),

		requests:       reg.Counter(MetricRequests),
		batchQueries:   reg.Counter(MetricBatchQueries),
		cacheHits:      reg.Counter(MetricCacheHits),
		cacheMisses:    reg.Counter(MetricCacheMisses),
		budgetDenied:   reg.Counter(MetricBudgetDenied),
		budgetSpent:    reg.Counter(MetricBudgetSpent),
		budgetRefunded: reg.Counter(MetricBudgetRefunded),
		errs:           reg.Counter(MetricErrors),
		shed:           reg.Counter(MetricShed),
		walAppends:     reg.Counter(MetricWALAppends),
		latency:        reg.Histogram(MetricLatency),
		cacheSize:      reg.Gauge(MetricCacheSize),
		queueDepth:     reg.Gauge(MetricQueueDepth),
	}
	for name := range s.backends {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)

	// Replay the WAL (if any) before the server takes traffic: the ledger
	// resumes from the replayed history and the totals ReplayLedger
	// derived from it.
	var replayed []LedgerEntry
	totals := map[string]int{}
	if cfg.WALPath != "" {
		w, entries, err := openWAL(cfg.WALPath, cfg.WALSync)
		if err != nil {
			return nil, err
		}
		if totals, err = ReplayLedger(entries); err != nil {
			w.Close()
			return nil, fmt.Errorf("remote: wal %s does not replay: %w", cfg.WALPath, err)
		}
		s.wal = w
		replayed = entries
	}
	s.ledger = newLedger(s.wal, replayed, totals)
	s.admit = newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, s.queueDepth)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/meta", s.handleMeta)
	mux.HandleFunc("/v1/ledger", s.handleLedger)
	mux.HandleFunc("/ledger", s.handleLedger)
	s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The backend name is the rest of the path, taken verbatim:
		// ServeMux would answer an unclean one ("../meta", "a//b") with a
		// 301 redirect instead of a wire ErrorResponse.
		if strings.HasPrefix(r.URL.Path, "/v1/query/") {
			s.handleQuery(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
	return s, nil
}

// Close releases the server's durable resources: the ledger WAL is
// synced and closed (idempotent; a nil-WAL server closes trivially).
// In-flight requests racing a Close may fail their ledger appends — the
// batch then fails without moving budget, which is the safe side.
func (s *Server) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// Handler returns the /v1/* HTTP handler. Mount it alongside the obs
// serve.Server handler to get /metrics, /snapshot, /healthz and /journal
// on the same listener (see cmd/qserver).
func (s *Server) Handler() http.Handler { return s.handler }

// Meta returns the full (v2) metadata; GET /v1/meta shapes it to the
// negotiated version.
func (s *Server) Meta() Meta {
	return Meta{
		V:            VMax,
		N:            s.cfg.N,
		Seed:         s.cfg.Seed,
		P:            s.cfg.P,
		Backends:     append([]string(nil), s.names...),
		Budget:       s.cfg.Budget,
		MaxBatch:     s.cfg.MaxBatch,
		QueueDepth:   s.cfg.QueueDepth,
		RetryAfterMs: int(s.cfg.RetryAfter / time.Millisecond),
	}
}

// metaAt shapes the metadata to one wire version: a v1 view omits the
// v2 overload fields entirely, so pre-v2 clients decode exactly the
// schema they were built against.
func (s *Server) metaAt(v int) Meta {
	m := s.Meta()
	m.V = v
	if v < V2 {
		m.QueueDepth, m.RetryAfterMs = 0, 0
	}
	return m
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, V, http.StatusMethodNotAllowed, CodeBadRequest, "GET only")
		return
	}
	s.requests.Add(1)
	v := V
	if raw := r.URL.Query().Get("v"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 || parsed > VMax {
			s.fail(w, V, http.StatusBadRequest, CodeUnsupportedVersion,
				fmt.Sprintf("requested wire version %q, server speaks 1..%d", raw, VMax))
			return
		}
		v = parsed
	}
	writeJSON(w, http.StatusOK, s.metaAt(v))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sp := s.latency.Span()
	defer sp.End()
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, V, http.StatusMethodNotAllowed, CodeBadRequest, "POST only")
		return
	}
	// Continue the client's trace: the span this handler records carries
	// the wire trace id and reports the client-side span as its parent,
	// so a merged Chrome trace (client /trace fetch + AddProcess) shows
	// the server lane nested under the client's batch span.
	trace := r.Header.Get(HeaderTraceID)
	var parent obs.SpanID
	if v := r.Header.Get(HeaderParentSpan); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			parent = obs.SpanID(id)
		}
	}
	tsp := s.tracer.Begin("query_batch", "qserver", s.lane, parent)
	if trace != "" {
		tsp = tsp.WithArg("trace", trace)
	}
	defer tsp.End()
	ctx := r.Context()

	name := strings.TrimPrefix(r.URL.Path, "/v1/query/")
	backend, ok := s.backends[name]
	if !ok {
		s.fail(w, V, http.StatusNotFound, CodeUnknownBackend, fmt.Sprintf("no backend %q (have %s)", name, strings.Join(s.names, ", ")))
		return
	}
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, V, http.StatusBadRequest, CodeBadRequest, "undecodable body: "+err.Error())
		return
	}
	if req.V < V || req.V > VMax {
		s.fail(w, V, http.StatusBadRequest, CodeUnsupportedVersion,
			fmt.Sprintf("wire version %d, server speaks 1..%d", req.V, VMax))
		return
	}
	v := req.V // responses echo the request's version
	if len(req.Queries) > s.cfg.MaxBatch {
		s.fail(w, v, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("batch of %d exceeds max_batch %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	analyst := req.Analyst
	if analyst == "" {
		analyst = "anon"
	}

	// Admission control: claim a bounded queue slot or shed immediately —
	// under overload the server answers "retry later" in microseconds
	// instead of stacking requests.
	if err := s.admit.enter(ctx); err != nil {
		if errors.Is(err, errShed) {
			s.shed.Add(1)
			s.journal(name, analyst, trace, len(req.Queries), 0, 0, CodeOverloaded)
			s.failOverloaded(w, v, errShed.Error())
			return
		}
		s.fail(w, v, http.StatusServiceUnavailable, CodeInternal, "cancelled while waiting for a slot")
		return
	}
	defer s.admit.leave()

	// Injected service time (overload testing): holds the active slot so
	// concurrent load actually contends on admission.
	if s.cfg.Delay > 0 {
		t := time.NewTimer(s.cfg.Delay)
		select {
		case <-ctx.Done():
			t.Stop()
			s.fail(w, v, http.StatusServiceUnavailable, CodeInternal, "cancelled during injected delay")
			return
		case <-t.C:
		}
	}
	s.batchQueries.Add(int64(len(req.Queries)))

	// Canonicalize at the trust boundary: every query becomes a sorted
	// copy and is validated once, here — the single place duplicate
	// indices and out-of-range users are rejected for the whole service
	// (backends still re-check, but no malformed query reaches them).
	keys := make([]string, len(req.Queries))
	canon := make([][]int, len(req.Queries))
	for i, q := range req.Queries {
		cq := append([]int(nil), q...)
		sort.Ints(cq)
		if err := query.ValidateQuery(s.cfg.N, cq); err != nil {
			s.fail(w, v, http.StatusBadRequest, CodeInvalidQuery, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		canon[i] = cq
		keys[i] = queryKey(name, cq)
	}

	// Cache pass: split the batch into hits and distinct misses. Only
	// fresh (uncached) queries spend budget — asking again is free.
	type missT struct {
		key string
		q   []int
	}
	var misses []missT
	var missKeys []string
	seen := make(map[string]bool)
	cached := 0
	s.cacheMu.Lock()
	for i, k := range keys {
		if _, ok := s.cache[k]; ok {
			cached++
			continue
		}
		if !seen[k] {
			seen[k] = true
			misses = append(misses, missT{k, canon[i]})
			missKeys = append(missKeys, k)
		}
	}
	s.cacheMu.Unlock()
	fresh := len(misses)

	// Reserve the fresh queries all-or-nothing against the analyst's
	// budget: a granted reservation appends a spend entry, a refused one
	// a deny entry — either way the movement hits the WAL (when durable)
	// and the audit trail before any backend runs. A WAL append failure
	// moves nothing and fails the batch. Zero-cost batches (all cached)
	// leave no entry.
	hash := batchHash(missKeys)
	if fresh > 0 {
		entry, ok, lerr := s.ledger.spend(analyst, name, hash, trace, fresh, s.cfg.Budget)
		if lerr != nil {
			s.journal(name, analyst, trace, len(req.Queries), cached, fresh, CodeInternal)
			s.fail(w, v, http.StatusInternalServerError, CodeInternal, "ledger wal: "+lerr.Error())
			return
		}
		if s.wal != nil {
			s.walAppends.Add(1)
		}
		s.journalBudget(entry)
		if !ok {
			s.budgetDenied.Add(1)
			s.journal(name, analyst, trace, len(req.Queries), cached, fresh, CodeBudgetExhausted)
			s.fail(w, v, http.StatusTooManyRequests, CodeBudgetExhausted,
				fmt.Sprintf("analyst %q: %d fresh queries over budget (%d of %d spent)",
					analyst, fresh, entry.Cumulative, s.cfg.Budget))
			return
		}
		s.budgetSpent.Add(int64(fresh))
	}
	s.cacheHits.Add(int64(cached))
	s.cacheMisses.Add(int64(fresh))

	// Answer the misses on the pool. The backends are sticky/deterministic
	// per canonical query, so parallel order does not affect answers.
	fresh64 := make([]float64, fresh)
	if err := par.ForEach(s.cfg.Workers, fresh, func(i int) error {
		a, err := query.AnswerOne(ctx, backend, misses[i].q)
		if err != nil {
			return err
		}
		fresh64[i] = a
		return nil
	}); err != nil {
		// All-or-nothing: a failed batch spends nothing — the refund is
		// its own ledger entry, so the audit trail shows the attempt.
		if fresh > 0 {
			re, rerr := s.ledger.refund(analyst, name, hash, trace, fresh)
			if rerr != nil {
				s.journal(name, analyst, trace, len(req.Queries), cached, fresh, CodeInternal)
				s.fail(w, v, http.StatusInternalServerError, CodeInternal,
					fmt.Sprintf("batch failed (%v) and the ledger refund did not persist: %v", err, rerr))
				return
			}
			if s.wal != nil {
				s.walAppends.Add(1)
			}
			s.journalBudget(re)
			s.budgetRefunded.Add(int64(fresh))
		}
		status, code := http.StatusInternalServerError, CodeInternal
		switch {
		case errors.Is(err, diffix.ErrSuppressed):
			status, code = http.StatusUnprocessableEntity, CodeSuppressed
		case errors.Is(err, query.ErrInvalidQuery):
			status, code = http.StatusBadRequest, CodeInvalidQuery
		case errors.Is(err, query.ErrBudgetExhausted):
			status, code = http.StatusTooManyRequests, CodeBudgetExhausted
		}
		s.journal(name, analyst, trace, len(req.Queries), cached, fresh, code)
		s.fail(w, v, status, code, err.Error())
		return
	}

	// Store the fresh answers, then read every answer back — all answers
	// come from the cache, so repeated keys in one batch and repeated
	// batches across analysts observe one value.
	answers := make([]float64, len(keys))
	s.cacheMu.Lock()
	for i := range misses {
		s.cache[misses[i].key] = fresh64[i]
	}
	for i, k := range keys {
		answers[i] = s.cache[k]
	}
	if fresh > 0 {
		s.cacheSize.Set(float64(len(s.cache)))
	}
	s.cacheMu.Unlock()
	remaining := -1
	if s.cfg.Budget > 0 {
		remaining = s.cfg.Budget - s.ledger.total(analyst)
	}

	s.journal(name, analyst, trace, len(req.Queries), cached, fresh, "")
	writeJSON(w, http.StatusOK, QueryResponse{V: v, Answers: answers, Cached: cached, BudgetRemaining: remaining})
}

// journal emits one run-journal event per query batch (when a journal is
// configured): which backend, how much was cached vs freshly spent, the
// wire trace id, and the refusal code if the batch was refused.
func (s *Server) journal(backend, analyst, trace string, queries, cached, fresh int, code string) {
	if s.cfg.Journal == nil {
		return
	}
	e := obs.Event{
		Phase: "query_batch",
		ID:    backend,
		Seed:  s.cfg.Seed,
		Trace: trace,
		Sizes: map[string]int{"queries": queries, "cached": cached, "fresh": fresh},
	}
	if code != "" {
		e.Error = code
	}
	_ = s.cfg.Journal.Emit(e)
}

// journalBudget emits one budget.spend / budget.refund / budget.deny
// event per ledger entry (when a journal is configured), carrying the
// sequence number, cost and cumulative so the journal alone replays to
// the enforced budget state.
func (s *Server) journalBudget(e LedgerEntry) {
	if s.cfg.Journal == nil {
		return
	}
	_ = s.cfg.Journal.Emit(obs.Event{
		Phase: "budget." + e.Op,
		ID:    e.Analyst,
		Seed:  s.cfg.Seed,
		Trace: e.Trace,
		Sizes: map[string]int{"seq": int(e.Seq), "cost": e.Cost, "cumulative": e.Cumulative},
	})
}

// handleLedger serves the append-only privacy-loss ledger (GET, optional
// ?analyst= filter): the full spend/refund/deny history in sequence
// order, plus the current per-analyst net totals. Mounted at both
// /v1/ledger and /ledger.
func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, V, http.StatusMethodNotAllowed, CodeBadRequest, "GET only")
		return
	}
	s.requests.Add(1)
	entries, totals := s.ledger.snapshot(r.URL.Query().Get("analyst"))
	writeJSON(w, http.StatusOK, LedgerResponse{
		V: V, Budget: s.cfg.Budget, Totals: totals, Entries: entries,
	})
}

// fail writes a refusal at the given wire version. v is V for failures
// detected before the request's version is known.
func (s *Server) fail(w http.ResponseWriter, v, status int, code, msg string) {
	s.errs.Add(1)
	writeJSON(w, status, ErrorResponse{V: v, Err: ErrorBody{Code: code, Message: msg}})
}

// failOverloaded writes the typed load-shedding refusal: 503 with the
// retry hint both as the coarse Retry-After header (whole seconds,
// minimum 1) and the precise retry_after_ms body field.
func (s *Server) failOverloaded(w http.ResponseWriter, v int, msg string) {
	s.errs.Add(1)
	ms := int(s.cfg.RetryAfter / time.Millisecond)
	secs := (ms + 999) / 1000
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
		V:   v,
		Err: ErrorBody{Code: CodeOverloaded, Message: msg, RetryAfterMs: ms},
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// queryKey is the answer-cache key: backend name plus the canonical
// (sorted) index set.
func queryKey(backend string, canonical []int) string {
	var b strings.Builder
	b.WriteString(backend)
	b.WriteByte('|')
	for i, v := range canonical {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// BudgetSpent reports the fresh queries an analyst has net spent (test
// and telemetry hook).
func (s *Server) BudgetSpent(analyst string) int {
	return s.ledger.total(analyst)
}

// Ledger returns the current entry history and totals (optionally
// filtered to one analyst), the same view GET /v1/ledger serves.
func (s *Server) Ledger(analyst string) ([]LedgerEntry, map[string]int) {
	return s.ledger.snapshot(analyst)
}

// CacheLen reports the answer-cache population.
func (s *Server) CacheLen() int {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return len(s.cache)
}
