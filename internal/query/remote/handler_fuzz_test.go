package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"singlingout/internal/obs"
)

// wireCodes is every error code the wire schema defines.
var wireCodes = map[string]bool{
	CodeInvalidQuery: true, CodeBudgetExhausted: true, CodeSuppressed: true,
	CodeUnknownBackend: true, CodeBadRequest: true, CodeInternal: true,
	CodeOverloaded: true, CodeUnsupportedVersion: true,
}

// FuzzQueryHandler sends arbitrary request bodies to arbitrary backend
// names through the server's HTTP handler, each twice (the repeat hits
// the answer cache or the budget). The handler must never panic; every
// response must be a 200 QueryResponse with one answer per query or an
// ErrorResponse carrying a wire error code; and no analyst's net spend
// may ever exceed the budget.
func FuzzQueryHandler(f *testing.F) {
	f.Add([]byte(`{"v":1,"analyst":"a","queries":[[0,1],[2]]}`), "exact")
	f.Add([]byte(`{"v":2,"analyst":"b","queries":[[3,1,2],[1,2,3]]}`), "laplace")
	f.Add([]byte(`{"v":1,"queries":[[0,1,2,3,4,5,6,7,8,9]]}`), "diffix")
	f.Add([]byte(`{"v":1,"queries":[[0,0,1]]}`), "exact")
	f.Add([]byte(`{"v":1,"queries":[[0,16]]}`), "exact")
	f.Add([]byte(`{"v":1,"queries":[[-1]]}`), "exact")
	f.Add([]byte(`{"v":1,"queries":[[0],[1],[2],[3],[4],[5]]}`), "exact")
	f.Add([]byte(`{"v":1,"queries":[[0],[1],[2],[3],[4],[5],[6],[7],[8]]}`), "exact")
	f.Add([]byte(`{"v":3,"queries":[[0]]}`), "exact")
	f.Add([]byte(`{"v":0,"queries":[[0]]}`), "exact")
	f.Add([]byte(`{"v":1,"queries":[[0,`), "exact")
	f.Add([]byte(`{"v":1,"queries":[[1]]}`), "no-such-backend")
	f.Add([]byte(`{"v":1,"queries":[[1]]}`), "../meta")
	f.Add([]byte(``), "")
	f.Fuzz(func(t *testing.T, body []byte, backend string) {
		const budget = 5
		s, err := NewServer(ServerConfig{
			N: 16, Seed: 1, P: 0.5, Budget: budget, MaxBatch: 8,
			Registry: obs.NewRegistry(), Tracer: obs.NewTracer(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// The request count the handler sees: it decodes the first JSON
		// value of the body, as here.
		var req QueryRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		for call := 0; call < 2; call++ {
			r := httptest.NewRequest(http.MethodPost, "/v1/query/", bytes.NewReader(body))
			r.URL.Path += backend
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, r)
			checkQueryResponse(t, w, decoded, len(req.Queries))
			_, totals := s.Ledger("")
			for analyst, spent := range totals {
				if spent > budget {
					t.Fatalf("analyst %q spent %d of a %d budget", analyst, spent, budget)
				}
			}
			if analyst := req.Analyst; analyst != "" && s.BudgetSpent(analyst) > budget {
				t.Fatalf("BudgetSpent(%q) = %d over the %d budget", analyst, s.BudgetSpent(analyst), budget)
			}
		}
	})
}

// checkQueryResponse asserts the wire contract on one recorded response.
func checkQueryResponse(t *testing.T, w *httptest.ResponseRecorder, decoded bool, queries int) {
	t.Helper()
	dec := json.NewDecoder(w.Body)
	dec.DisallowUnknownFields()
	if w.Code == http.StatusOK {
		var resp QueryResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("200 body is not a QueryResponse: %v", err)
		}
		if !decoded || len(resp.Answers) != queries {
			t.Fatalf("200 with %d answers for %d queries (body decoded: %v)", len(resp.Answers), queries, decoded)
		}
		return
	}
	var resp ErrorResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("status %d body is not an ErrorResponse: %v: %q", w.Code, err, strings.TrimSpace(w.Body.String()))
	}
	if !wireCodes[resp.Err.Code] {
		t.Fatalf("status %d carries unknown error code %q", w.Code, resp.Err.Code)
	}
}
