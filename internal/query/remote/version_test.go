package remote_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/query/remote"
)

func getMeta(t *testing.T, url string) (remote.Meta, int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m remote.Meta
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
	}
	return m, resp.StatusCode, body
}

func TestMetaVersionNegotiation(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 31})

	// Baseline request: v1 shape, no overload fields on the wire.
	m, status, body := getMeta(t, ts.URL+"/v1/meta")
	if status != http.StatusOK || m.V != 1 || bytes.Contains(body, []byte("queue_depth")) || bytes.Contains(body, []byte("retry_after_ms")) {
		t.Fatalf("v1 meta = %s (status %d), want v:1 without overload fields", body, status)
	}

	// v2 request: overload semantics advertised.
	m2, status, body := getMeta(t, ts.URL+"/v1/meta?v=2")
	if status != http.StatusOK || m2.V != 2 || m2.QueueDepth != 64 || m2.RetryAfterMs <= 0 {
		t.Fatalf("v2 meta = %s (status %d), want v:2 with queue_depth and retry_after_ms", body, status)
	}

	// Future version: typed refusal.
	_, status, body = getMeta(t, ts.URL+"/v1/meta?v=9")
	if status != http.StatusBadRequest {
		t.Fatalf("v9 meta status = %d, want 400", status)
	}
	var er remote.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Err.Code != remote.CodeUnsupportedVersion {
		t.Fatalf("v9 meta body = %s, want code %q", body, remote.CodeUnsupportedVersion)
	}

	// Dial lands on v2 and sees the overload semantics.
	o, err := remote.Dial(ctx, ts.URL, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if o.WireVersion() != 2 || o.Meta().QueueDepth != 64 {
		t.Fatalf("negotiated v%d with meta %+v, want v2 with queue_depth", o.WireVersion(), o.Meta())
	}
}

// TestDialIgnoresShardsField: servers from before the single-lock
// design also advertise an informational "shards" count in the v2 meta;
// a client dials them at v2 and decodes everything else as usual.
func TestDialIgnoresShardsField(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"v":2,"n":16,"seed":1,"p":0.5,"backends":["exact"],"budget":0,"max_batch":64,"shards":2,"queue_depth":64,"retry_after_ms":50}`)
	}))
	defer old.Close()
	o, err := remote.Dial(ctx, old.URL, fastOpts())
	if err != nil {
		t.Fatalf("Dial refused a v2 meta carrying shards: %v", err)
	}
	if m := o.Meta(); o.WireVersion() != 2 || m.N != 16 || m.QueueDepth != 64 || m.RetryAfterMs != 50 {
		t.Fatalf("negotiated v%d with meta %+v, want v2 with n=16, queue_depth=64, retry_after_ms=50", o.WireVersion(), m)
	}
}

// TestPostVersionEcho: the server accepts any version in [1, VMax] and
// answers in the version the request spoke, so old clients keep decoding
// exactly what they always did.
func TestPostVersionEcho(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 37})
	post := func(v int) (remote.QueryResponse, remote.ErrorResponse, int) {
		t.Helper()
		body, _ := json.Marshal(remote.QueryRequest{V: v, Queries: [][]int{{0}}})
		resp, err := http.Post(ts.URL+"/v1/query/exact", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr remote.QueryResponse
		var er remote.ErrorResponse
		payload := new(bytes.Buffer)
		payload.ReadFrom(resp.Body)
		json.Unmarshal(payload.Bytes(), &qr)
		json.Unmarshal(payload.Bytes(), &er)
		return qr, er, resp.StatusCode
	}
	if qr, _, status := post(1); status != http.StatusOK || qr.V != 1 {
		t.Fatalf("v1 request answered with status %d v%d, want 200 v1", status, qr.V)
	}
	if qr, _, status := post(2); status != http.StatusOK || qr.V != 2 {
		t.Fatalf("v2 request answered with status %d v%d, want 200 v2", status, qr.V)
	}
	if _, er, status := post(3); status != http.StatusBadRequest || er.Err.Code != remote.CodeUnsupportedVersion {
		t.Fatalf("v3 request: status %d code %q, want 400 %q", status, er.Err.Code, remote.CodeUnsupportedVersion)
	}
	if _, er, status := post(0); status != http.StatusBadRequest || er.Err.Code != remote.CodeUnsupportedVersion {
		t.Fatalf("v0 request: status %d code %q, want 400 %q", status, er.Err.Code, remote.CodeUnsupportedVersion)
	}
}

// TestDialDowngradesToLegacyServer: a pre-negotiation server ignores the
// ?v= parameter and answers the baseline schema; Dial settles on v1.
func TestDialDowngradesToLegacyServer(t *testing.T) {
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/meta" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(remote.Meta{
			V: 1, N: 16, Seed: 1, P: 0.5, Backends: []string{"exact"}, MaxBatch: 64,
		})
	}))
	defer legacy.Close()
	o, err := remote.Dial(ctx, legacy.URL, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if o.WireVersion() != 1 {
		t.Fatalf("negotiated v%d against a legacy server, want 1", o.WireVersion())
	}
}

// TestDialRefusesFutureServer: a server whose advertised version is past
// the client's range fails the dial instead of being misread.
func TestDialRefusesFutureServer(t *testing.T) {
	future := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(remote.Meta{V: 9, N: 16, Seed: 1, P: 0.5, MaxBatch: 64})
	}))
	defer future.Close()
	if _, err := remote.Dial(ctx, future.URL, fastOpts()); err == nil {
		t.Fatal("Dial should refuse a server speaking a future wire version")
	}
}

// TestGetRetriesTransient: GETs (meta, ledger, trace) share the POST
// path's retry treatment — transient 5xx responses are retried with
// backoff and counted in remote.retries.
func TestGetRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(remote.Meta{
			V: 2, N: 16, Seed: 1, P: 0.5, Backends: []string{"exact"}, MaxBatch: 64,
		})
	}))
	defer flaky.Close()
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	opts := fastOpts()
	opts.Registry = reg
	o, err := remote.Dial(ctx, flaky.URL, opts)
	if err != nil {
		t.Fatalf("Dial should outlast two transient failures: %v", err)
	}
	if o.WireVersion() != 2 {
		t.Fatalf("negotiated v%d, want 2", o.WireVersion())
	}
	if got := reg.Counter(remote.MetricClientRetries).Value(); got != 2 {
		t.Fatalf("remote.retries = %d, want 2", got)
	}
}
