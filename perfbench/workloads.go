package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/shard"
	"mtc/internal/workload"
	"mtc/pkg/client"
)

// clients is the closed-loop client count of the served workloads: one
// per CPU of the 2-core machine the bounds were set on. Every SDK
// caller waits for its reply before it sends again.
const clients = 2

// frameTxns is B, the committed transactions per session-ingest frame.
const frameTxns = 64

// streamsPerClient is how many distinct histories each session-ingest
// client streams in turn. The online engine's cost on out-of-order
// arrival varies from one history to the next, so a single history per
// client would make the figures depend on the seed.
const streamsPerClient = 12

// tally accumulates the outcome of a measured window.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	causes    map[string]int
	lat       []float64 // ms, successful operations that carry a latency
	txns      int       // committed transactions verified
}

// ok counts a successful operation; lat is 0 for an operation that
// carries no latency sample (a session's final verdict).
func (t *tally) ok(lat time.Duration, txns int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if lat > 0 {
		t.lat = append(t.lat, ms(lat))
	}
	t.txns += txns
}

func (t *tally) fail(cause string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if t.causes == nil {
		t.causes = map[string]int{}
	}
	if len(cause) > 120 {
		cause = cause[:120]
	}
	t.causes[cause]++
}

// env is one workload's set-up state.
type env interface {
	// describe prints the corpus identity: txn counts and content hashes.
	describe(w io.Writer)
	// opName names the operation whose latency the workload reports.
	opName() string
	// run drives the closed loop until the deadline.
	run(tr *tracer, until time.Time) *tally
	// probe replays the workload's own inputs through every layer's
	// public functions, for the traced run.
	probe(ctx context.Context, tr *tracer) error
	close() error
}

type workloadDef struct {
	name  string
	setup func(ctx context.Context, seed int64, tr *tracer, tmp string) (env, error)
}

var workloads = []workloadDef{
	{"mtc-e2e", setupE2E},
	{"serve-jobs", setupServeJobs},
	{"session-ingest", setupSessionIngest},
}

// ---- mtc-e2e: the paper's Figure 2 pipeline, in process ----

type e2eEnv struct {
	seed int64
	tmp  string
	hash string
	last *history.History // the latest round's SER history, for the probe
}

// roundSpec returns the generation spec of round i on one store.
func (e *e2eEnv) roundSpec(i int, mode kv.Mode) genSpec {
	return genSpec{seed: e.seed*1_000_003 + int64(i), txns: roundTxnsPerSession, mode: mode}
}

// warmRounds is how many rounds set-up runs before the window, each held
// to the engines' reference verdicts.
const warmRounds = 4

func setupE2E(ctx context.Context, seed int64, tr *tracer, tmp string) (env, error) {
	e := &e2eEnv{seed: seed, tmp: tmp}
	for i := 0; i < warmRounds; i++ {
		if err := e.warmRound(ctx, tr, -1-i); err != nil {
			return nil, err
		}
	}
	// The rounds' plans are a pure function of the seed; hash the first.
	e.hash = planHash(plan(nil, "", 0, e.roundSpec(0, kv.ModeSerializable)))
	return e, nil
}

func (e *e2eEnv) warmRound(ctx context.Context, tr *tracer, i int) error {
	op := fmt.Sprintf("setup-round%d", i)
	root := tr.begin(op, 0, "setup.corpus")
	defer tr.end(root)
	w := plan(tr, op, root, e.roundSpec(i, kv.ModeSerializable))
	for _, leg := range e2eLegs {
		res, err := execute(tr, op, root, w, e.roundSpec(i, leg.mode))
		if err != nil {
			return err
		}
		ent, err := makeEntry(ctx, tr, op, root, "warmup-"+string(leg.lvl), leg.lvl, refCore, res.H)
		if err != nil {
			return err
		}
		if ent.ref != leg.want() {
			return fmt.Errorf("warm-up round: %s store history checked at %s gave %s", leg.mode, leg.lvl, ent.ref)
		}
		e.last = res.H
	}
	return nil
}

// e2eLeg is one store of a round and the level its history is checked at.
type e2eLeg struct {
	mode kv.Mode
	lvl  core.Level
}

// want is the verdict a correct store's history must get.
func (l e2eLeg) want() verdict { return verdict{OK: true, Level: string(l.lvl)} }

var e2eLegs = []e2eLeg{{kv.ModeSerializable, core.SER}, {kv.ModeSI, core.SI}}

func (e *e2eEnv) describe(w io.Writer) {
	fmt.Fprintf(w, "corpus round-plans       sessions=%d txns/session=%d objects=%d dist=zipf seed=%d round0_sha256=%s\n",
		planSessions, roundTxnsPerSession, zipfObjects, e.seed, e.hash)
}

func (e *e2eEnv) opName() string { return "round" }

func (e *e2eEnv) run(tr *tracer, until time.Time) *tally {
	t := &tally{}
	ctx := context.Background()
	for i := 0; time.Now().Before(until); i++ {
		op := fmt.Sprintf("round-%d", i)
		root := tr.begin(op, 0, "e2e.round")
		t0 := time.Now()
		w := plan(tr, op, root, e.roundSpec(i, kv.ModeSerializable))
		committed, cause := 0, ""
		for _, leg := range e2eLegs {
			res, err := execute(tr, op, root, w, e.roundSpec(i, leg.mode))
			if err != nil {
				cause = err.Error()
				break
			}
			// The timed run checks through the registry, as a caller of
			// the engine would; the traced run derives the same verdict
			// layer by layer to time each layer.
			var got verdict
			if tr == nil {
				rep, err := checker.Run(ctx, "mtc", res.H, checker.Options{Level: leg.lvl})
				if err != nil {
					cause = err.Error()
					break
				}
				got = verdictOfReport(&rep)
			} else {
				got = checkLayered(ctx, tr, op, root, res.H, leg.lvl, false)
			}
			if got != leg.want() {
				cause = fmt.Sprintf("%s store at %s: verdict %s", leg.mode, leg.lvl, got)
				break
			}
			committed += res.Committed
			if leg.lvl == core.SER {
				e.last = res.H
			}
		}
		lat := time.Since(t0)
		tr.end(root)
		if cause != "" {
			t.fail(cause)
		} else {
			t.ok(lat, committed)
		}
	}
	return t
}

func (e *e2eEnv) probe(ctx context.Context, tr *tracer) error {
	return probeLayers(ctx, tr, probeInput{
		h: e.last, lvl: core.SER, ref: e2eLegs[0].want(),
		streams: commitOrderStream(e.last, core.SER, e2eLegs[0].want()), tmp: e.tmp, serveJobs: true,
	})
}

func (e *e2eEnv) close() error { return nil }

// planHash identifies a plan by its operations.
func planHash(w *workload.Workload) string {
	sum := sha256.New()
	for s, txns := range w.Sessions {
		for _, t := range txns {
			fmt.Fprintf(sum, "%d:%v;", s, t.Ops)
		}
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// ---- serve-jobs: whole-history jobs over HTTP ----

type jobsEnv struct {
	s       *served
	corpus  []*entry
	tenants *entry // the multi-component history, checked sharded
	tmp     string
	props   []string
}

func setupServeJobs(ctx context.Context, seed int64, tr *tracer, tmp string) (env, error) {
	ser, err := newEntry(ctx, tr, "ser-clean", core.SER, refCore,
		genSpec{seed: seed, txns: jobTxnsPerSession, mode: kv.ModeSerializable, dropAborted: true})
	if err != nil {
		return nil, err
	}
	si, err := newEntry(ctx, tr, "si-clean", core.SI, refCore,
		genSpec{seed: seed + 1, txns: jobTxnsPerSession, mode: kv.ModeSI, dropAborted: true})
	if err != nil {
		return nil, err
	}
	op := "setup-profile"
	root := tr.begin(op, 0, "setup.corpus")
	prof, err := makeEntry(ctx, tr, op, root, "profile-clean", core.SER, refProfile, ser.h)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	bug, err := newEntry(ctx, tr, "si-lost-update", core.SI, refCore,
		genSpec{seed: seed + 2, txns: jobTxnsPerSession, mode: kv.ModeSI, bug: "mariadb-galera-10.7.3", dropAborted: true})
	if err != nil {
		return nil, err
	}
	if bug.ref.OK {
		return nil, fmt.Errorf("injected-bug history passed %s; the corpus needs a violating job", bug.level)
	}
	ten, err := newEntry(ctx, tr, "ser-8-tenants", core.SER, refSharded,
		genSpec{seed: seed + 3, txns: jobTxnsPerSession, tenants: tenants, mode: kv.ModeSerializable, dropAborted: true})
	if err != nil {
		return nil, err
	}
	p := shard.Split(ten.h)
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	e := &jobsEnv{s: s, corpus: []*entry{ser, si, prof, bug, ten}, tenants: ten, tmp: tmp,
		props: []string{fmt.Sprintf("%s shard.components %d shard.largest_component_share %.4f", ten.name, len(p.Components), largestShare(p))}}
	e.warmUp()
	return e, nil
}

// warmUp runs each corpus job once so that connections, pools and lazy
// server state exist before the window opens. Warm-up outcomes are
// printed, not counted.
func (e *jobsEnv) warmUp() {
	cl := e.s.newClient()
	for _, ent := range e.corpus {
		if _, cause := runJob(nil, cl, "warmup", ent); cause != "" {
			fmt.Printf("warmup %s failed: %s\n", ent.name, cause)
		}
	}
}

func (e *jobsEnv) describe(w io.Writer) {
	for _, ent := range e.corpus {
		ent.describe(w)
	}
	for _, p := range e.props {
		fmt.Fprintf(w, "input %s\n", p)
	}
}

func (e *jobsEnv) opName() string { return "job" }

func (e *jobsEnv) run(tr *tracer, until time.Time) *tally {
	t := &tally{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.s.newClient()
			for k := 0; time.Now().Before(until); k++ {
				ent := e.corpus[(c+k)%len(e.corpus)]
				lat, cause := runJob(tr, cl, fmt.Sprintf("job-c%d-%d", c, k), ent)
				if cause != "" {
					t.fail(ent.name + ": " + cause)
				} else {
					t.ok(lat, ent.committed)
				}
			}
		}(c)
	}
	wg.Wait()
	return t
}

func (e *jobsEnv) probe(ctx context.Context, tr *tracer) error {
	ent := e.corpus[0]
	return probeLayers(ctx, tr, probeInput{
		h: ent.h, lvl: ent.level, ref: ent.ref, split: e.tenants,
		streams: commitOrderStream(ent.h, ent.level, ent.ref), tmp: e.tmp,
	})
}

func (e *jobsEnv) close() error { return e.s.close() }

// ---- session-ingest: live sessions fed MTCB frames out of commit order ----

type stream struct {
	e      *entry
	keys   []history.Key
	frames [][]history.Txn
	wire   [][]client.TxnPayload
	ooo    float64 // session.out_of_order_share
}

// sessEnv holds one list of streams per client: client c streams its
// level's histories in turn.
type sessEnv struct {
	s       *served
	streams [][]*stream
	tmp     string
}

func setupSessionIngest(ctx context.Context, seed int64, tr *tracer, tmp string) (env, error) {
	e := &sessEnv{tmp: tmp}
	for c, leg := range e2eLegs {
		var streams []*stream
		for k := 0; k < streamsPerClient; k++ {
			ent, err := newEntry(ctx, tr, fmt.Sprintf("stream-%s-%d", leg.lvl, k), leg.lvl, refCore,
				genSpec{seed: seed*100 + int64(c*streamsPerClient+k), txns: streamTxnsPerSession, mode: leg.mode, dropAborted: true})
			if err != nil {
				return nil, err
			}
			st := &stream{e: ent, keys: initKeys(ent.h), frames: sessionFrames(ent.h, frameTxns)}
			for _, f := range st.frames {
				st.wire = append(st.wire, payloads(f))
			}
			st.ooo = outOfOrderShare(st.frames)
			tr.count("setup", "session.out_of_order", st.ooo*float64(ent.committed))
			tr.count("setup", "session.txns", float64(ent.committed))
			streams = append(streams, st)
		}
		e.streams = append(e.streams, streams)
	}
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	e.s = s
	// Warm-up: open a session per level, feed two frames, discard it.
	cl := s.newClient()
	for _, streams := range e.streams {
		st := streams[0]
		sess, _, err := cl.OpenSessionOpts(ctx, client.SessionOpts{Level: string(st.e.level), Keys: st.keys})
		if err != nil {
			return e, fmt.Errorf("warm-up session: %w", err)
		}
		for _, f := range st.wire[:min(2, len(st.wire))] {
			if _, err := sess.SendBinary(ctx, f...); err != nil {
				return e, fmt.Errorf("warm-up batch: %w", err)
			}
		}
		if err := sess.Close(ctx); err != nil {
			return e, fmt.Errorf("warm-up close: %w", err)
		}
	}
	return e, nil
}

// sessionFrames cuts each database session's committed transactions,
// in session order, into frames of n and deals the frames round-robin
// across the sessions — the arrival order of a client that batches
// per session.
func sessionFrames(h *history.History, n int) [][]history.Txn {
	var perSession [][][]history.Txn
	for _, ids := range h.Sessions {
		var txns []history.Txn
		for _, id := range ids {
			if t := h.Txns[id]; t.Committed && !(h.HasInit && id == 0) {
				txns = append(txns, t)
			}
		}
		perSession = append(perSession, chunk(txns, n))
	}
	var out [][]history.Txn
	for r := 0; ; r++ {
		added := false
		for _, frames := range perSession {
			if r < len(frames) {
				out = append(out, frames[r])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// outOfOrderShare is the share of transactions that arrive after a
// transaction that committed later than they did.
func outOfOrderShare(frames [][]history.Txn) float64 {
	var latest int64
	late, n := 0, 0
	for _, f := range frames {
		for _, t := range f {
			if t.Finish < latest {
				late++
			}
			latest = max(latest, t.Finish)
			n++
		}
	}
	return ratio(float64(late), float64(n))
}

func (e *sessEnv) describe(w io.Writer) {
	late, n := 0.0, 0.0
	for _, streams := range e.streams {
		for _, st := range streams {
			st.e.describe(w)
			late += st.ooo * float64(st.e.committed)
			n += float64(st.e.committed)
		}
	}
	fmt.Fprintf(w, "input frames of B=%d txns, session.out_of_order_share %.4f\n", frameTxns, ratio(late, n))
}

func (e *sessEnv) opName() string { return "batch" }

func (e *sessEnv) run(tr *tracer, until time.Time) *tally {
	t := &tally{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.s.newClient()
			streams := e.streams[c%len(e.streams)]
			for k := 0; time.Now().Before(until); k++ {
				e.streamOnce(tr, cl, fmt.Sprintf("stream-c%d-%d", c, k), streams[k%len(streams)], t)
			}
		}(c)
	}
	wg.Wait()
	return t
}

// streamOnce opens a session, streams every frame and asks for the final
// verdict. Each batch and the final verdict are one operation each. A
// stream started in the window runs to its end: the online engine's cost
// per transaction grows along a stream, so cutting streams at the
// deadline would make the figures depend on where the cut fell.
func (e *sessEnv) streamOnce(tr *tracer, cl *client.Client, op string, st *stream, t *tally) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	sess, _, err := cl.OpenSessionOpts(ctx, client.SessionOpts{Level: string(st.e.level), Keys: st.keys})
	if err != nil {
		t.fail("open session: " + err.Error())
		return
	}
	defer func() {
		if err := sess.Close(ctx); err != nil {
			t.fail("close session: " + err.Error())
		}
	}()
	for i, f := range st.wire {
		bop := fmt.Sprintf("%s-b%d", op, i)
		id := tr.begin(bop, 0, "session.batch")
		t0 := time.Now()
		status, err := sess.SendBinary(ctx, f...)
		lat := time.Since(t0)
		tr.end(id)
		switch {
		case err != nil:
			t.fail("batch: " + err.Error())
			return
		case !status.OK && st.e.ref.OK:
			t.fail(fmt.Sprintf("%s: violation reported mid-stream on a clean history: %s", st.e.name, verdictOfReport(status.Report)))
			return
		}
		t.ok(lat, len(f))
	}
	status, err := sess.Verdict(ctx, true)
	switch {
	case err != nil:
		t.fail("final verdict: " + err.Error())
	case verdictOfReport(status.Report) != st.e.ref:
		t.fail(fmt.Sprintf("%s: final verdict %s, reference %s", st.e.name, verdictOfReport(status.Report), st.e.ref))
	default:
		t.ok(0, 0)
	}
}

func (e *sessEnv) probe(ctx context.Context, tr *tracer) error {
	var streams []streamIn
	for _, sts := range e.streams {
		st := sts[0]
		streams = append(streams, streamIn{h: st.e.h, lvl: st.e.level, ref: st.e.ref, frames: st.frames})
	}
	first := e.streams[0][0].e
	return probeLayers(ctx, tr, probeInput{
		h: first.h, lvl: first.level, ref: first.ref, streams: streams, tmp: e.tmp,
		jobServer: e.s, serveJobs: true,
	})
}

func (e *sessEnv) close() error { return e.s.close() }

// sortedNames lists workload names.
func sortedNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	sort.Strings(out)
	return out
}

// tmpDir returns a fresh scratch directory inside dir.
func tmpDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
