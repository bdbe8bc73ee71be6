package remote

import (
	"fmt"
	"regexp"

	"singlingout/internal/diffix"
	"singlingout/internal/query"
)

// Backend is a pluggable oracle factory: one wire endpoint
// (POST /v1/query/{Name}) backed by one query.Oracle over the server's
// dataset. The built-in exact/laplace/diffix backends are registered
// through the same interface (Builtins), so a k-anonymized or
// DP-histogram backend plugs into the server by appearing in
// ServerConfig.Backends — no server code changes, and the wire schema,
// budget accounting and caching apply to it unmodified.
//
// Open is called once at server construction. The returned oracle must
// be safe for concurrent use and deterministic per canonical query
// (same query set, same answer) — the answer cache relies on it: a
// cached answer must equal a fresh one for every analyst.
type Backend interface {
	// Name is the wire name of the endpoint: lowercase identifier
	// ([a-z][a-z0-9_]*), unique within one server.
	Name() string
	// Open builds the backend's oracle over the generated dataset x.
	// cfg carries the backend knobs (Seed, Eps, SD, Threshold) with
	// defaults already applied.
	Open(cfg ServerConfig, x []int64) (query.Oracle, error)
}

// Builtins returns the three reference backends every qserver serves by
// default: the exact (calibration) oracle, the sticky-Laplace DP oracle
// and the Diffix-style sticky-noise cloak. ServerConfig.Backends == nil
// means exactly this set; a custom set can include them alongside new
// backends (append(remote.Builtins(), myBackend)).
func Builtins() []Backend {
	return []Backend{exactBackend{}, laplaceBackend{}, diffixBackend{}}
}

type exactBackend struct{}

func (exactBackend) Name() string { return "exact" }
func (exactBackend) Open(_ ServerConfig, x []int64) (query.Oracle, error) {
	return &query.Exact{X: x}, nil
}

type laplaceBackend struct{}

func (laplaceBackend) Name() string { return "laplace" }
func (laplaceBackend) Open(cfg ServerConfig, x []int64) (query.Oracle, error) {
	return &query.StickyLaplace{X: x, Eps: cfg.Eps, Seed: cfg.Seed}, nil
}

type diffixBackend struct{}

func (diffixBackend) Name() string { return "diffix" }
func (diffixBackend) Open(cfg ServerConfig, x []int64) (query.Oracle, error) {
	return &diffix.Cloak{X: x, SD: cfg.SD, Threshold: cfg.Threshold, Seed: cfg.Seed}, nil
}

// backendName validates wire endpoint names: the name becomes a URL path
// segment and a cache-key prefix, so it must be a plain lowercase
// identifier.
var backendName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// openBackends materializes the registered backends into the server's
// name -> oracle table, rejecting invalid and duplicate names.
func openBackends(cfg ServerConfig, x []int64, regs []Backend) (map[string]query.Oracle, error) {
	if len(regs) == 0 {
		return nil, fmt.Errorf("remote: server needs at least one backend")
	}
	out := make(map[string]query.Oracle, len(regs))
	for _, b := range regs {
		name := b.Name()
		if !backendName.MatchString(name) {
			return nil, fmt.Errorf("remote: backend name %q: must match %s", name, backendName)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("remote: backend %q registered twice", name)
		}
		o, err := b.Open(cfg, x)
		if err != nil {
			return nil, fmt.Errorf("remote: opening backend %q: %w", name, err)
		}
		if o == nil {
			return nil, fmt.Errorf("remote: backend %q opened to a nil oracle", name)
		}
		out[name] = o
	}
	return out, nil
}
