// Push/rumor-mongering side of the replicator: instead of waiting for a
// peer's next pull round, a node that commits payload records advertises
// the (segment seq, size, CRC) delta at a few random peers, which pull
// exactly that range immediately and relay the rumor onward. TTL plus
// rumor-ID dedup makes rumors die out; the periodic pull loop stays the
// repair path for anything a partition or a dropped rumor missed.
package replicate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"javaflow/internal/obs"
	"javaflow/internal/store"
)

const (
	// DefaultGossipTTL is the hop budget on locally originated rumors:
	// with fanout f and TTL t a rumor can reach f^t nodes, so 3 hops at
	// log-N fanout covers any fleet this system targets.
	DefaultGossipTTL = 3
	// maxGossipTTL caps the TTL accepted from the wire, so a buggy or
	// hostile peer cannot mint immortal rumors.
	maxGossipTTL = 8
	// gossipDebounce coalesces the append-hook burst of a sweep into one
	// advertisement: peers need the final delta, not one rumor per record.
	gossipDebounce = 25 * time.Millisecond
	// rumorDedupCap bounds the seen-rumor set (FIFO eviction). Rumors
	// identify monotonic log positions, so evicting an old ID can at
	// worst cost one redundant no-op pull, never correctness.
	rumorDedupCap = 4096
	// notifyTimeout bounds one outbound notification, including the
	// receiver's synchronous catch-up pull.
	notifyTimeout = 30 * time.Second
)

// ErrGossipDisabled reports a gossip entry point on a pull-only
// replicator. The serve handler maps it to 404, mirroring how endpoints
// behave when no replicator is configured at all.
var ErrGossipDisabled = errors.New("replicate: gossip not enabled (no advertise URL)")

// ErrBadNotification reports a structurally invalid notification (empty
// origin or no segments); the serve handler maps it to 400.
var ErrBadNotification = errors.New("replicate: bad notification: origin and segments are required")

// Notification is the POST /v1/replicate/notify wire body: "Origin has
// these segment positions — pull from it if you are behind, and pass it
// on while TTL lasts." Segments carry cumulative positions, not diffs,
// so a rumor lost to a partition is healed by any later rumor (or the
// pull loop) rather than leaving a hole.
type Notification struct {
	// Origin is the advertising node's base URL as its peers know it.
	Origin string `json:"origin"`
	// TTL is the remaining hop budget; a receiver relays with TTL-1
	// while TTL > 1.
	TTL int `json:"ttl"`
	// Segments are the origin's segment positions being advertised.
	Segments []store.SegmentInfo `json:"segments"`
}

// NotifyOutcome is the notify response body.
type NotifyOutcome struct {
	// Result classifies what the receiver did: "pulled" (was behind,
	// caught up synchronously), "current" (nothing missing), "duplicate"
	// (rumor already seen), "self" (own rumor echoed back), or
	// "unknown-origin" (origin is not a configured peer, nothing to pull
	// from).
	Result string `json:"result"`
	// Ingested / Skipped count records merged vs. already present during
	// a synchronous pull.
	Ingested int64 `json:"ingested"`
	Skipped  int64 `json:"skipped"`
	// Relayed is how many peers the rumor was forwarded to.
	Relayed int `json:"relayed"`
}

// gossip is the replicator's push-side state.
type gossip struct {
	advertise string
	fanout    int
	ttl       int
	dirty     chan struct{} // append-hook wakeups, capacity 1

	mu sync.Mutex
	// lastAdvertised is the per-segment size already pushed at peers;
	// the next advertisement carries only segments that grew past it.
	lastAdvertised map[int]int64
	rumorSeen      map[string]bool
	rumorFIFO      []string

	sent, sendErrors, received atomic.Int64
	duplicates, unknownOrigin  atomic.Int64
	pulls, relayed             atomic.Int64
}

// newGossip sizes the fanout for a fleet of peerCount peers.
func newGossip(advertise string, peerCount, fanout, ttl int) *gossip {
	if fanout <= 0 {
		fanout = int(math.Ceil(math.Log2(float64(peerCount + 1))))
	}
	if fanout < 1 {
		fanout = 1
	}
	if fanout > peerCount {
		fanout = peerCount
	}
	if ttl <= 0 {
		ttl = DefaultGossipTTL
	}
	if ttl > maxGossipTTL {
		ttl = maxGossipTTL
	}
	return &gossip{
		advertise:      advertise,
		fanout:         fanout,
		ttl:            ttl,
		dirty:          make(chan struct{}, 1),
		lastAdvertised: make(map[int]int64),
		rumorSeen:      make(map[string]bool),
	}
}

// GossipEnabled reports whether this replicator pushes as well as pulls.
func (r *Replicator) GossipEnabled() bool { return r.g != nil }

// startGossip installs the store append hook and launches the notifier
// loop; the returned channel closes when the loop exits. A pull-only
// replicator returns an already closed channel.
func (r *Replicator) startGossip(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	if r.g == nil {
		close(done)
		return done
	}
	r.st.SetAppendHook(func() {
		select {
		case r.g.dirty <- struct{}{}:
		default: // a wakeup is already pending; the delta is cumulative
		}
	})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-r.g.dirty:
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(gossipDebounce):
			}
			// Fold in wakeups that arrived while debouncing; the manifest
			// read below covers them.
			select {
			case <-r.g.dirty:
			default:
			}
			if err := r.AdvertiseNow(ctx); err != nil && ctx.Err() == nil {
				r.logff("replicate: gossip: %v", err)
			}
		}
	}()
	return done
}

// AdvertiseNow flushes the store and pushes the not-yet-advertised
// segment delta at GossipFanout random peers. It is a no-op when nothing
// grew since the last successful advertisement. Exposed for tests; the
// notifier loop is the normal caller.
//
// The advertisement runs under its own trace span (a fresh trace unless
// the caller's ctx already carries one), and the minted context flows
// into every notify POST — so the receivers' server spans, their relay
// pulls, and the relays' receivers all correlate under one trace ID.
func (r *Replicator) AdvertiseNow(ctx context.Context) (err error) {
	ctx, span := r.tracer.StartSpan(ctx, "gossip.advertise")
	defer func() { span.End(err) }()
	g := r.g
	if g == nil {
		return ErrGossipDisabled
	}
	// Flush first: peers pull through ReadSegmentAt, which only serves
	// written bytes — and a rumor must never advertise positions the
	// origin cannot back with durable data.
	if err := r.st.Flush(); err != nil {
		return err
	}
	manifest, err := r.st.Manifest()
	if err != nil {
		return err
	}
	g.mu.Lock()
	var delta []store.SegmentInfo
	live := make(map[int]bool, len(manifest))
	for _, seg := range manifest {
		live[seg.Seq] = true
		if seg.Size > g.lastAdvertised[seg.Seq] {
			delta = append(delta, seg)
		}
	}
	// Forget positions for segments compaction folded away, mirroring the
	// pull loop's stale-cursor cleanup.
	for seq := range g.lastAdvertised {
		if !live[seq] {
			delete(g.lastAdvertised, seq)
		}
	}
	g.mu.Unlock()
	if len(delta) == 0 {
		return nil
	}
	sort.Slice(delta, func(i, j int) bool { return delta[i].Seq < delta[j].Seq })
	n := Notification{Origin: g.advertise, TTL: g.ttl, Segments: delta}
	targets := r.pickTargets(g.fanout, g.advertise)
	ok := r.sendNotify(ctx, n, targets)
	span.SetAttr("segments", strconv.Itoa(len(delta)))
	span.SetAttr("sent", strconv.Itoa(ok))
	if ok == 0 && len(targets) > 0 {
		// Leave lastAdvertised untouched: the next wakeup (or the next
		// commit) re-advertises the whole delta, so a total push outage
		// degrades to pull-only instead of silently dropping ranges.
		return fmt.Errorf("replicate: gossip: notify failed for all %d peer(s)", len(targets))
	}
	g.mu.Lock()
	for _, seg := range delta {
		if seg.Size > g.lastAdvertised[seg.Seq] {
			g.lastAdvertised[seg.Seq] = seg.Size
		}
	}
	g.mu.Unlock()
	return nil
}

// pickTargets draws up to fanout distinct random peers, excluding any
// whose normalized name appears in exclude.
func (r *Replicator) pickTargets(fanout int, exclude ...string) []*peerState {
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	var pool []*peerState
	for _, p := range r.peers {
		if !skip[p.name] {
			pool = append(pool, p)
		}
	}
	rand.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > fanout {
		pool = pool[:fanout]
	}
	return pool
}

// sendNotify posts n at every target concurrently and returns how many
// accepted it.
func (r *Replicator) sendNotify(ctx context.Context, n Notification, targets []*peerState) (ok int) {
	if len(targets) == 0 {
		return 0
	}
	var okCount atomic.Int64
	var wg sync.WaitGroup
	for _, p := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, notifyTimeout)
			defer cancel()
			if err := r.postNotify(sctx, p.name, n); err != nil {
				r.g.sendErrors.Add(1)
				// A peer that cannot be told about new data may be
				// partitioned from us; the pull loop is the repair path.
				r.journal.Emit("replicate", "partition_suspected", obs.SevWarn, traceIDFrom(ctx),
					"peer", p.name, "error", err.Error())
				r.logff("replicate: gossip: notify %s: %v", p.name, err)
				return
			}
			r.g.sent.Add(1)
			okCount.Add(1)
		}()
	}
	wg.Wait()
	return int(okCount.Load())
}

// rumorID canonically names one advertisement: same origin + same
// positions = same rumor, regardless of which peer relayed it or how the
// origin URL was spelled.
func rumorID(origin string, segs []store.SegmentInfo) string {
	parts := make([]string, 0, len(segs)+1)
	parts = append(parts, origin)
	sorted := append([]store.SegmentInfo(nil), segs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	for _, s := range sorted {
		parts = append(parts, strconv.Itoa(s.Seq)+":"+strconv.FormatInt(s.Size, 10))
	}
	return strings.Join(parts, "|")
}

// markRumor records id as seen, evicting the oldest entry past the cap.
// It returns false when the rumor was already known.
func (g *gossip) markRumor(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rumorSeen[id] {
		return false
	}
	g.rumorSeen[id] = true
	g.rumorFIFO = append(g.rumorFIFO, id)
	if len(g.rumorFIFO) > rumorDedupCap {
		delete(g.rumorSeen, g.rumorFIFO[0])
		g.rumorFIFO = g.rumorFIFO[1:]
	}
	return true
}

// unmarkRumor forgets id, so a rumor whose pull failed can be accepted
// again on retry instead of being deduped into a hole until the next
// pull round.
func (g *gossip) unmarkRumor(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.rumorSeen, id)
	for i, v := range g.rumorFIFO {
		if v == id {
			g.rumorFIFO = append(g.rumorFIFO[:i], g.rumorFIFO[i+1:]...)
			break
		}
	}
}

// HandleNotify is the receiver side of a rumor: dedup it, pull the
// advertised range from the origin synchronously (so the sender's POST
// returning means the data moved), then relay it onward with TTL-1.
// The pull shares the round mutex with the periodic loop, so cursors
// never race.
func (r *Replicator) HandleNotify(ctx context.Context, n Notification) (NotifyOutcome, error) {
	ctx, span := r.tracer.StartSpan(ctx, "gossip.notify")
	out, err := r.handleNotify(ctx, n)
	span.SetAttr("origin", normalizePeer(n.Origin))
	span.SetAttr("result", out.Result)
	span.End(err)
	return out, err
}

func (r *Replicator) handleNotify(ctx context.Context, n Notification) (NotifyOutcome, error) {
	var out NotifyOutcome
	g := r.g
	if g == nil {
		return out, ErrGossipDisabled
	}
	origin := normalizePeer(n.Origin)
	if origin == "" || len(n.Segments) == 0 {
		return out, ErrBadNotification
	}
	g.received.Add(1)
	if origin == g.advertise {
		out.Result = "self"
		return out, nil
	}
	id := rumorID(origin, n.Segments)
	if !g.markRumor(id) {
		g.duplicates.Add(1)
		out.Result = "duplicate"
		return out, nil
	}
	p := r.peerByName(origin)
	if p == nil {
		// Nothing to pull from (no cursor namespace for a stranger) and
		// nothing worth relaying: peers we cannot verify would spread
		// unverifiable rumors.
		g.unknownOrigin.Add(1)
		out.Result = "unknown-origin"
		return out, nil
	}

	r.syncMu.Lock()
	cursor := p.loadCursor(r.st)
	behind := false
	for _, seg := range n.Segments {
		if cursor[seg.Seq] < seg.Size {
			behind = true
			break
		}
	}
	var res pullResult
	var pullErr error
	if behind {
		g.pulls.Add(1)
		res, pullErr = r.pullSegments(ctx, p, n.Segments, cursor)
		if res.segsPulled > 0 {
			// Cursor strictly after the data, as everywhere else.
			r.st.PutMeta(cursorMetaPrefix+p.name, store.MarshalCursor(cursor))
			if err := r.st.Flush(); err != nil && pullErr == nil {
				pullErr = err
			}
		}
		p.mu.Lock()
		p.cursor = cursor
		p.ingested += res.ingested
		p.skipped += res.skipped
		p.bytesFetched += res.fetched
		p.segsPulled += res.segsPulled
		if pullErr != nil {
			p.lastErr = pullErr.Error()
		}
		p.mu.Unlock()
	}
	r.syncMu.Unlock()
	if pullErr != nil {
		// Forget the rumor so a re-send retries the pull instead of
		// deduping into a gap the repair loop would have to fill.
		g.unmarkRumor(id)
		return out, pullErr
	}
	out.Ingested, out.Skipped = res.ingested, res.skipped
	if behind {
		out.Result = "pulled"
	} else {
		out.Result = "current"
	}

	ttl := n.TTL
	if ttl > maxGossipTTL {
		ttl = maxGossipTTL
	}
	if ttl > 1 {
		targets := r.pickTargets(g.fanout, origin, g.advertise)
		if len(targets) > 0 {
			out.Relayed = len(targets)
			g.relayed.Add(int64(len(targets)))
			relay := Notification{Origin: origin, TTL: ttl - 1, Segments: n.Segments}
			// Detached: the sender's POST must not wait for the next hop;
			// sendNotify bounds each send with notifyTimeout. The trace
			// context survives the detach so relay hops stay correlated
			// under the originating advertisement's trace ID.
			rctx := context.Background()
			if tc, ok := obs.TraceFrom(ctx); ok {
				rctx = obs.ContextWithTrace(rctx, tc)
			}
			go r.sendNotify(rctx, relay, targets)
		}
	}
	return out, nil
}

// GossipStats is the push side's observable state, folded into Stats.
type GossipStats struct {
	// Advertise is the origin URL stamped on this node's rumors.
	Advertise string `json:"advertise"`
	Fanout    int    `json:"fanout"`
	TTL       int    `json:"ttl"`
	// RumorsSent counts accepted outbound notifications (originated and
	// relayed); SendErrors counts rejected or unreachable ones.
	RumorsSent int64 `json:"rumorsSent"`
	SendErrors int64 `json:"sendErrors"`
	// RumorsReceived counts inbound notifications before dedup.
	RumorsReceived int64 `json:"rumorsReceived"`
	Duplicates     int64 `json:"duplicates"`
	UnknownOrigin  int64 `json:"unknownOrigin"`
	// PullsTriggered counts rumors that found this node behind and
	// triggered a synchronous catch-up pull.
	PullsTriggered int64 `json:"pullsTriggered"`
	// Relayed counts onward forwards of fresh rumors.
	Relayed int64 `json:"relayed"`
}

// gossipStats snapshots the gossip counters (nil when gossip is off).
func (r *Replicator) gossipStats() *GossipStats {
	g := r.g
	if g == nil {
		return nil
	}
	return &GossipStats{
		Advertise:      g.advertise,
		Fanout:         g.fanout,
		TTL:            g.ttl,
		RumorsSent:     g.sent.Load(),
		SendErrors:     g.sendErrors.Load(),
		RumorsReceived: g.received.Load(),
		Duplicates:     g.duplicates.Load(),
		UnknownOrigin:  g.unknownOrigin.Load(),
		PullsTriggered: g.pulls.Load(),
		Relayed:        g.relayed.Load(),
	}
}
