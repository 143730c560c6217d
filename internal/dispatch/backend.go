package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/obs"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
)

// A Backend executes one dispatched job: a remote jfserved instance over
// HTTP or a test double. Implementations must
// be safe for concurrent use; errors other than *fabric.LoadError and
// context cancellation are treated as transient and retried on another
// node.
type Backend interface {
	// Name identifies the backend in metrics and ring placement; names
	// must be unique within a dispatcher.
	Name() string
	// Run executes job under the given effective mesh-cycle bound (always
	// resolved, never 0) and returns the completed two-policy MethodRun.
	Run(ctx context.Context, job serve.Job, maxCycles int) (sim.MethodRun, error)
}

// maxErrorBody bounds how much of a failed response is read for the error
// message; maxRunAnswer bounds a 200 answer's MethodRun codec bytes (two
// Results with their config names and signatures — a few hundred bytes).
const (
	maxErrorBody = 1 << 20
	maxRunAnswer = 1 << 20
)

// Remote is a Backend that forwards jobs to another jfserved instance via
// POST /v1/run. Config and method are sent by name, so the peer must serve
// the same registry (same corpus flags); a peer that does not know a name
// fails the job, which the dispatcher then retries elsewhere or runs
// locally.
type Remote struct {
	base   string // URL prefix without trailing slash, e.g. "http://host:8077"
	client *http.Client
}

// dialTimeout / responseHeaderTimeout bound the default peer client. The
// dial bound is tight (a dead host must fail fast, not pin an inflight
// slot for the kernel's SYN patience); the header bound is generous
// because a cold /v1/run legitimately computes for minutes before its
// first response byte.
const (
	dialTimeout           = 5 * time.Second
	responseHeaderTimeout = 5 * time.Minute
)

// defaultRemoteClient serves NewRemote callers that pass no client. No
// overall timeout — a cold sweep job can legitimately simulate for a long
// time, so per-request lifetimes come from the dispatch context — but the
// transport bounds connection establishment and time-to-first-header, so
// a dead or wedged peer fails the attempt instead of pinning an inflight
// slot indefinitely.
var defaultRemoteClient = &http.Client{Transport: &http.Transport{
	DialContext:           (&net.Dialer{Timeout: dialTimeout}).DialContext,
	ResponseHeaderTimeout: responseHeaderTimeout,
	MaxIdleConnsPerHost:   defaultInflight,
	IdleConnTimeout:       90 * time.Second,
}}

// NewRemote builds a backend for the jfserved instance at baseURL. A nil
// client uses a shared default with transport-level dial and
// response-header timeouts (but no overall request timeout; see
// defaultRemoteClient).
func NewRemote(baseURL string, client *http.Client) *Remote {
	if client == nil {
		client = defaultRemoteClient
	}
	return &Remote{base: strings.TrimRight(baseURL, "/"), client: client}
}

// Name returns the peer's base URL.
func (r *Remote) Name() string { return r.base }

// Run posts the job to the peer and decodes the result, which the peer
// sends in the MethodRun codec (the request's Accept header asks for it).
// Non-2xx responses stay JSON and become errors; a 422 rejection is
// rehydrated into the same typed *fabric.LoadError a local run would
// return, so skip accounting is identical on both paths.
func (r *Remote) Run(ctx context.Context, job serve.Job, maxCycles int) (sim.MethodRun, error) {
	body, err := json.Marshal(serve.RunRequest{
		Config:        job.Config.Name,
		Method:        job.Method.Signature(),
		MaxMeshCycles: maxCycles,
	})
	if err != nil {
		return sim.MethodRun{}, fmt.Errorf("dispatch: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return sim.MethodRun{}, fmt.Errorf("dispatch: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", serve.MethodRunContentType)
	// One hop only: the receiving node executes locally even if it is
	// itself a dispatch front (or this very process — a self-peer must
	// not recurse).
	req.Header.Set(serve.DispatchedHeader, "1")
	// Carry the caller's trace across the wire so the peer's server span
	// joins the same trace one hop deeper, and the caller's deadline so
	// the peer sheds work this hop can no longer wait for.
	obs.Inject(req, ctx)
	admit.Inject(req, ctx)

	resp, err := r.client.Do(req)
	if err != nil {
		return sim.MethodRun{}, fmt.Errorf("dispatch: %s: %w", r.base, err)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		var ep serve.ErrorPayload
		if json.Unmarshal(data, &ep) == nil && ep.Kind == serve.ErrKindRejected {
			return sim.MethodRun{}, ep.Err()
		}
		msg := strings.TrimSpace(string(data))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return sim.MethodRun{}, fmt.Errorf("dispatch: %s: status %d: %s", r.base, resp.StatusCode, msg)
	}

	// The answer is the MethodRun codec's bytes: decoding them is exact,
	// so a dispatched run is byte-identical to a local one. A peer that
	// ignored the Accept header (JSON from an older version) or sent a
	// body that does not decode fails the attempt like any other
	// transient error, and the job takes the retry/local-fallback route.
	if ct := resp.Header.Get("Content-Type"); ct != serve.MethodRunContentType {
		return sim.MethodRun{}, fmt.Errorf("dispatch: %s: answer has Content-Type %q, want %q", r.base, ct, serve.MethodRunContentType)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRunAnswer+1))
	if err != nil {
		return sim.MethodRun{}, fmt.Errorf("dispatch: %s: reading answer: %w", r.base, err)
	}
	if len(data) > maxRunAnswer {
		return sim.MethodRun{}, fmt.Errorf("dispatch: %s: answer exceeds %d bytes", r.base, maxRunAnswer)
	}
	var run sim.MethodRun
	if err := run.UnmarshalBinary(data); err != nil {
		return sim.MethodRun{}, fmt.Errorf("dispatch: %s: %w", r.base, err)
	}
	return run, nil
}

// Healthy reports whether the peer answers /healthz. Used for operator
// feedback at startup, not for routing — routing health is learned from
// job outcomes.
func (r *Remote) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
