package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"javaflow/internal/classfile"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

const (
	// popSeed is jfserved's default -seed: the generated population every
	// workload serves. The benchmark's own -seed picks requests from it.
	popSeed = 2014
	// maxCycles is passed to every jfserved as -maxcycles and used for
	// the in-process references, so both sides key and bound runs alike.
	maxCycles = 400_000
)

// population is the jfserved method registry rebuilt in-process: the same
// corpus flags give the same methods in the same registry order.
type population struct {
	gen     int
	configs []sim.Config
	methods []*classfile.Method
}

func newPopulation(gen int) *population {
	p := &population{gen: gen, configs: sim.Configurations()}
	seen := make(map[string]bool)
	for _, m := range workload.Corpus(popSeed, gen) {
		if sig := m.Signature(); !seen[sig] {
			seen[sig] = true
			p.methods = append(p.methods, m)
		}
	}
	return p
}

// serverArgs are the corpus flags that make jfserved serve p.
func (p *population) serverArgs() []string {
	return []string{"-gen", fmt.Sprint(p.gen), "-seed", fmt.Sprint(popSeed), "-maxcycles", fmt.Sprint(maxCycles)}
}

// pair is one (configuration, method) request with its expected answer.
type pair struct {
	cfg  sim.Config
	m    *classfile.Method
	body []byte // POST /v1/run request body
	want []byte // expected response body, byte for byte
	run  sim.MethodRun
}

// workingSet picks n distinct (configuration, method) pairs the fabric
// can host, using seed, and computes each pair's reference response
// in-process. Unhostable pairs are filtered here with sim.DeployMethod,
// so a method the fabric rejects never shows up as a failed request.
func (p *population) workingSet(seed int64, n int) ([]*pair, error) {
	total := len(p.configs) * len(p.methods)
	if n > total {
		n = total
	}
	rng := rand.New(rand.NewSource(seed))
	var out []*pair
	for _, k := range rng.Perm(total) {
		if len(out) == n {
			break
		}
		cfg, m := p.configs[k%len(p.configs)], p.methods[k/len(p.configs)]
		res, err := sim.DeployMethod(cfg, m)
		if err != nil {
			continue
		}
		run, err := (&sim.Runner{MaxMeshCycles: maxCycles}).RunResolved(cfg, res)
		if err != nil {
			return nil, fmt.Errorf("reference run %s on %s: %w", m.Signature(), cfg.Name, err)
		}
		body, err := json.Marshal(serve.RunRequest{Config: cfg.Name, Method: m.Signature()})
		if err != nil {
			return nil, err
		}
		want, err := encodeLikeServer(serve.RunPayload{
			Signature: run.Signature, Config: cfg.Name, MeanIPC: run.MeanIPC(), BP1: run.BP1, BP2: run.BP2,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, &pair{cfg: cfg, m: m, body: body, want: want, run: run})
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d hostable pairs, want %d", len(out), n)
	}
	return out, nil
}

// encodeLikeServer renders v the way jfserved writes JSON responses:
// two-space indentation and a trailing newline.
func encodeLikeServer(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// requestSeq draws n indexes into a working set of size k, uniformly, from
// a stream derived from seed (offset keeps phases independent).
func requestSeq(seed, offset int64, n, k int) []int {
	rng := rand.New(rand.NewSource(seed*7919 + offset))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(k)
	}
	return seq
}
