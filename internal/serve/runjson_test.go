package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// encodeReference renders v the way writeJSON does: encoding/json with
// two-space indentation and a trailing newline. It is the reference the
// hand-appended /v1/run answer must match byte for byte.
func encodeReference(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// trickyPayload fills every field of a RunPayload from a few inputs, so a
// test or fuzz case covers both Results' strings and ints.
func trickyPayload(sig, cfg, rcfg, rsig string, a, b int, ipc float64, timedOut bool, policy uint8) RunPayload {
	return RunPayload{
		Signature: sig,
		Config:    cfg,
		MeanIPC:   ipc,
		BP1: sim.Result{
			Config: rcfg, Signature: rsig, Policy: sim.BranchPolicy(policy),
			Fired: a, Distinct: b, Static: -a, MeshCycles: a ^ b,
			ParallelCycles: a / 3, BusyCycles: b / 7, MaxNode: a - b, TimedOut: timedOut,
		},
		BP2: sim.Result{
			Config: cfg, Signature: sig, Policy: sim.BranchPolicy(^policy),
			Fired: b, Distinct: a, Static: -b, MeshCycles: math.MaxInt, ParallelCycles: math.MinInt,
			BusyCycles: 0, MaxNode: a + b, TimedOut: !timedOut,
		},
	}
}

func TestRunPayloadJSONMatchesEncoder(t *testing.T) {
	strs := []string{
		"", "scimark/fft/FFT.bitreverse/1", `quote " and \ backslash`,
		"<script>&amp;</script>", "ctl \x00\x01\b\f\n\r\t\x1f\x7f end",
		"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80", // e-acute, euro sign, emoji
		"sep \xe2\x80\xa8 and \xe2\x80\xa9",         // U+2028, U+2029
		"bad \xff\xfe utf8 \xc3 \xed\xa0\x80 tail",  // invalid bytes, truncated rune, surrogate
		"\xef\xbf\xbd literal replacement char",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 0.19711163153786104, 1, -2.5, 1e-6, 9.99e-7, 1e-7, 1.5e-10,
		5e-324, 1e20, 1e21, 123456789012345678901234.0, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	}
	for i, s := range strs {
		for j, f := range floats {
			p := trickyPayload(s, strs[(i+1)%len(strs)], strs[(i+j)%len(strs)], s+s, i*1000-j, -j*77, f, j%2 == 0, uint8(i*j))
			got := appendRunPayload(nil, p)
			if want := encodeReference(t, p); !bytes.Equal(got, want) {
				t.Fatalf("payload %d/%d:\n got %q\nwant %q", i, j, got, want)
			}
		}
	}
}

// FuzzRunPayloadJSON: for arbitrary strings, ints and finite floats the
// appended answer equals encoding/json's.
func FuzzRunPayloadJSON(f *testing.F) {
	f.Add("scimark/fft/FFT.bitreverse/1", "Hetero2", "<a&b>", "\xff\x00", 17, 119, 0.19711163153786104, false, uint8(1))
	f.Add("", "", "\xe2\x80\xa8", "\t\"\\", -1, math.MaxInt, 1e-7, true, uint8(255))
	f.Fuzz(func(t *testing.T, sig, cfg, rcfg, rsig string, a, b int, ipc float64, timedOut bool, policy uint8) {
		if math.IsNaN(ipc) || math.IsInf(ipc, 0) {
			t.Skip("encoding/json rejects NaN and infinities; IPC is always finite")
		}
		p := trickyPayload(sig, cfg, rcfg, rsig, a, b, ipc, timedOut, policy)
		if got, want := appendRunPayload(nil, p), encodeReference(t, p); !bytes.Equal(got, want) {
			t.Fatalf("appended answer differs from encoding/json:\n got %q\nwant %q", got, want)
		}
	})
}

// runAnswer posts one /v1/run with the given headers and returns the
// 200 answer's Content-Type and body.
func runAnswer(t *testing.T, h http.Handler, req RunRequest, header map[string]string) (string, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	for k, v := range header {
		r.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/run %v: status %d: %s", header, rec.Code, rec.Body.Bytes())
	}
	return rec.Header().Get("Content-Type"), rec.Body.Bytes()
}

// TestRunAnswerNegotiation: only the exact MethodRun Accept value gets
// codec bytes; a plain request and a dispatched-header request without it
// (what CI's curl pins send) get the encoding/json answer.
func TestRunAnswerNegotiation(t *testing.T) {
	_, svc := testServer(t, 2)
	h := NewHandler(svc)
	m := svc.Methods()[0]
	req := RunRequest{Config: "Compact2", Method: m.Signature()}

	run, err := (&sim.Runner{MaxMeshCycles: testMaxCycles}).RunMethod(mustConfig(t, svc, "Compact2"), m)
	if err != nil {
		t.Fatal(err)
	}
	wantBinary, _ := run.MarshalBinary()
	wantJSON := encodeReference(t, payloadFor("Compact2", run))

	ct, body := runAnswer(t, h, req, map[string]string{"Accept": MethodRunContentType})
	if ct != MethodRunContentType || !bytes.Equal(body, wantBinary) {
		t.Fatalf("Accept %s: Content-Type %q, body %q; want the MarshalBinary bytes %q", MethodRunContentType, ct, body, wantBinary)
	}
	for _, header := range []map[string]string{
		nil,
		{DispatchedHeader: "1"},
		{"Accept": "application/json"},
		{"Accept": MethodRunContentType + ", application/json"},
	} {
		ct, body := runAnswer(t, h, req, header)
		if ct != "application/json" || !bytes.Equal(body, wantJSON) {
			t.Fatalf("headers %v: Content-Type %q, body\n%s\nwant the encoding/json answer\n%s", header, ct, body, wantJSON)
		}
	}
}

// goldenRunAnswer is the full /v1/run answer for FFT.bitreverse on
// Hetero2, as the encoding/json writer produced it before the answer was
// appended by hand.
const goldenRunAnswer = `{
  "signature": "scimark/fft/FFT.bitreverse/1",
  "config": "Hetero2",
  "meanIPC": 0.19711163153786104,
  "bp1": {
    "Config": "Hetero2",
    "Signature": "scimark/fft/FFT.bitreverse/1",
    "Policy": 0,
    "Fired": 17,
    "Distinct": 17,
    "Static": 86,
    "MeshCycles": 119,
    "ParallelCycles": 4,
    "BusyCycles": 26,
    "MaxNode": 167,
    "TimedOut": false
  },
  "bp2": {
    "Config": "Hetero2",
    "Signature": "scimark/fft/FFT.bitreverse/1",
    "Policy": 1,
    "Fired": 92,
    "Distinct": 86,
    "Static": 86,
    "MeshCycles": 366,
    "ParallelCycles": 43,
    "BusyCycles": 109,
    "MaxNode": 167,
    "TimedOut": false
  }
}
`

func TestRunAnswerGolden(t *testing.T) {
	const sig = "scimark/fft/FFT.bitreverse/1"
	for _, m := range workload.NamedMethods() {
		if m.Signature() != sig {
			continue
		}
		sched := NewScheduler(SchedulerOptions{Workers: 1})
		svc := NewService(sched, sim.Configurations(), []*classfile.Method{m})
		ct, body := runAnswer(t, NewHandler(svc), RunRequest{Config: "Hetero2", Method: sig}, nil)
		if ct != "application/json" {
			t.Fatalf("Content-Type %q, want application/json", ct)
		}
		if string(body) != goldenRunAnswer {
			t.Fatalf("answer drifted from the pinned bytes:\n%s\nwant\n%s", body, goldenRunAnswer)
		}
		return
	}
	t.Fatalf("no corpus method %s", sig)
}

// TestRunAnswerOneWrite: the hand-appended answer reaches the
// ResponseWriter in a single Write, header already set.
func TestRunAnswerOneWrite(t *testing.T) {
	p := trickyPayload("s", "c", "rc", "rs", 1, 2, 0.5, false, 0)
	w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	writeRunJSON(w, p)
	if w.writes != 1 {
		t.Fatalf("answer took %d writes, want 1", w.writes)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if !bytes.Equal(w.Body.Bytes(), encodeReference(t, p)) {
		t.Fatalf("body %q", w.Body.Bytes())
	}
}

type countingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}
