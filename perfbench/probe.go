package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/fabric"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/levels"
	"mtc/internal/shard"
)

// probeReps is how often the probe repeats each whole-history layer
// call; the per-layer figure is the median.
const probeReps = 3

// probeInput is one workload's representative input for the probe.
type probeInput struct {
	h   *history.History
	lvl core.Level
	ref verdict
	// split, when set, is the multi-component history the shard and
	// fabric layers are timed on instead of h.
	split *entry
	// streams are replayed concurrently through the streaming layers, as
	// the workload's clients feed them.
	streams []streamIn
	tmp     string
	// serveJobs submits the history as jobs too, for workloads whose
	// path never reaches the job layer; jobServer is the server to use
	// (nil starts a temporary one).
	serveJobs bool
	jobServer *served
}

// probeLayers times, on the workload's own input, the public call of
// every layer that the workload's entry point runs inside the program
// (where the benchmark cannot wrap it) or does not run at all. Each
// verdict the probe reaches is held to the reference.
func probeLayers(ctx context.Context, tr *tracer, in probeInput) error {
	op := "probe"
	root := tr.begin(op, 0, "probe")
	defer tr.end(root)
	txns := float64(len(in.h.Txns))
	for r := 0; r < probeReps; r++ {
		// api: the job request the SDK would send, and its decode.
		var body []byte
		var err error
		tr.do(op, root, "pkg/client.job_encode", func() {
			body, err = json.Marshal(api.JobRequest{Checker: "mtc", Level: string(in.lvl), History: in.h})
		})
		if err != nil {
			return fmt.Errorf("probe: encode job: %w", err)
		}
		tr.count(op, "history.wire_bytes", float64(len(body)))
		tr.count(op, "history.wire_txns", txns)
		var req api.JobRequest
		tr.do(op, root, "api.job_decode", func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return fmt.Errorf("probe: decode job: %w", err)
		}
		// Batch engine layers, then the profile and the report encode.
		if got := checkLayered(ctx, tr, op, root, req.History, in.lvl, false); got.OK != in.ref.OK {
			return fmt.Errorf("probe: layered check %s, reference %s", got, in.ref)
		}
		ix := history.NewIndex(in.h)
		g, divs := coreGraph(ix)
		if len(divs) == 0 {
			tr.do(op, root, "core.si_induce", func() { core.InduceSI(g) })
		}
		var prof *levels.Report
		tr.do(op, root, "levels.profile", func() { prof, err = levels.ProfileIndexed(ctx, ix, levels.Options{}) })
		if err != nil {
			return fmt.Errorf("probe: profile: %w", err)
		}
		rep := checker.ReportFromProfile("profile", in.lvl, prof)
		tr.do(op, root, "checker.report_encode", func() { _, err = json.Marshal(rep) })
		if err != nil {
			return fmt.Errorf("probe: encode report: %w", err)
		}
		h, lvl, ref := in.h, in.lvl, in.ref
		if in.split != nil {
			h, lvl, ref = in.split.h, in.split.level, in.split.ref
		}
		if err := probeShard(ctx, tr, op, root, h, lvl, ref); err != nil {
			return err
		}
		if err := probeFabric(ctx, tr, op, root, h, lvl, ref, in.tmp, r); err != nil {
			return err
		}
	}
	errs := make([]error, len(in.streams))
	var wg sync.WaitGroup
	for i, st := range in.streams {
		wg.Add(1)
		go func(i int, st streamIn) {
			defer wg.Done()
			errs[i] = probeStream(tr, fmt.Sprintf("probe-s%d", i), st)
		}(i, st)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if in.serveJobs {
		return probeJobs(tr, in)
	}
	return nil
}

// coreGraph derives the dependency graph the way the batch engine does.
func coreGraph(ix *history.Index) (*graph.Graph, []core.Divergence) {
	h := ix.History()
	g := graph.New(len(h.Txns))
	h.SessionOrder(func(a, b int) { g.AddEdge(graph.Edge{From: a, To: b, Kind: graph.SO}) })
	return g, core.DeriveDeps(ix, g.AddEdge)
}

// probeShard splits the history into components, checks each with the
// mtc engine and merges the component verdicts.
func probeShard(ctx context.Context, tr *tracer, op string, root int, h *history.History, lvl core.Level, ref verdict) error {
	var p *shard.Partition
	tr.do(op, root, "shard.split", func() { p = shard.Split(h) })
	c, err := checker.Lookup("mtc")
	if err != nil {
		return err
	}
	reports := make([]checker.Report, len(p.Components))
	for i := range p.Components {
		if reports[i], err = c.Check(ctx, p.Components[i].H, checker.Options{Level: lvl}); err != nil {
			return fmt.Errorf("probe: component check: %w", err)
		}
	}
	var merged checker.Report
	tr.do(op, root, "shard.merge", func() { merged = shard.Merge(p, "mtc", lvl, reports) })
	if merged.OK != ref.OK {
		return fmt.Errorf("probe: merged verdict ok=%t, reference %s", merged.OK, ref)
	}
	tr.count(op, "shard.components", float64(len(p.Components)))
	tr.count(op, "shard.largest_component_share", largestShare(p))
	return nil
}

// largestShare is the largest component's share of the transactions.
func largestShare(p *shard.Partition) float64 {
	largest := 0
	for _, c := range p.Components {
		largest = max(largest, len(c.H.Txns))
	}
	return ratio(float64(largest), float64(len(p.Source.Txns)))
}

// probeFabric drives one job through a coordinator on a fresh WAL by
// calling its methods directly, acting as one worker that advertises the
// MTCB codec: submit, then pull, check and push each component.
func probeFabric(ctx context.Context, tr *tracer, op string, root int, h *history.History, lvl core.Level, ref verdict, tmp string, rep int) error {
	dir, err := os.MkdirTemp(tmp, "probe-fabric-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal := filepath.Join(dir, "fabric.wal")
	coord, err := fabric.Open(wal, fabric.Config{})
	if err != nil {
		return fmt.Errorf("probe: open fabric: %w", err)
	}
	defer coord.Close()
	lease := coord.Register(api.WorkerHello{Name: "probe", Codecs: []string{"mtcb"}})
	before, err := fileSize(wal)
	if err != nil {
		return err
	}
	id := fmt.Sprintf("probe-%d", rep)
	tr.do(op, root, "fabric.submit", func() { err = coord.Submit(id, "mtc", h, checker.Options{Level: lvl}) })
	if err != nil {
		return fmt.Errorf("probe: fabric submit: %w", err)
	}
	after, err := fileSize(wal)
	if err != nil {
		return err
	}
	tr.count(op, "fabric.wal_bytes", float64(after-before))
	tr.count(op, "fabric.jobs", 1)
	reg := checker.Default
	for {
		var task *api.FabricTask
		tr.do(op, root, "fabric.pull", func() { task, err = coord.Pull(lease.ID) })
		if err != nil {
			return fmt.Errorf("probe: fabric pull: %w", err)
		}
		if task == nil {
			break
		}
		res := api.FabricResult{Job: task.Job, Component: task.Component, Epoch: task.Epoch}
		comp, opts := task.History, checker.Options{Level: core.Level(task.Level)}
		if comp == nil {
			ix, err := history.ReadMTCBIndexed(bytes.NewReader(task.HistoryMTCB))
			if err != nil {
				return fmt.Errorf("probe: decode component: %w", err)
			}
			comp, opts.Index = ix.History(), ix
		}
		r, err := reg.Run(ctx, task.Checker, comp, opts)
		if err != nil {
			return fmt.Errorf("probe: component check: %w", err)
		}
		res.Report = &r
		tr.do(op, root, "fabric.push", func() { _, err = coord.PushResult(lease.ID, res) })
		if err != nil {
			return fmt.Errorf("probe: fabric push: %w", err)
		}
	}
	got, err := coord.Wait(ctx, id)
	if err != nil {
		return fmt.Errorf("probe: fabric wait: %w", err)
	}
	if got.OK != ref.OK {
		return fmt.Errorf("probe: fabric verdict ok=%t, reference %s", got.OK, ref)
	}
	return nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// streamIn is one arrival-ordered stream for the streaming layers.
type streamIn struct {
	h      *history.History
	lvl    core.Level
	ref    verdict
	frames [][]history.Txn
}

// commitOrderStream feeds h in commit order.
func commitOrderStream(h *history.History, lvl core.Level, ref verdict) []streamIn {
	return []streamIn{{h: h, lvl: lvl, ref: ref, frames: chunk(commitOrder(h), frameTxns)}}
}

// probeStream replays the frames the way a streaming session ingests
// them: the client's MTCB encode, the server's frame decode through a
// session arena, and the online engine's Add per transaction, then
// Finalize. Each frame is one "probe.batch" root.
func probeStream(tr *tracer, op string, in streamIn) error {
	inc := core.NewIncremental(in.lvl)
	inc.InitTxn(initKeys(in.h)...)
	arena := history.NewIngestArena()
	for i, f := range in.frames {
		bop := fmt.Sprintf("%s-b%d", op, i)
		root := tr.begin(bop, 0, "probe.batch")
		var buf bytes.Buffer
		var err error
		tr.do(bop, root, "pkg/client.mtcb_encode", func() { err = encodeFrame(&buf, f) })
		if err != nil {
			tr.end(root)
			return err
		}
		var txns []history.Txn
		tr.do(bop, root, "history.mtcb_decode", func() { txns, err = decodeFrame(buf.Bytes(), arena) })
		if err != nil {
			tr.end(root)
			return err
		}
		tr.do(bop, root, "core.online_add", func() {
			for _, t := range txns {
				inc.Add(t)
			}
		})
		tr.count(bop, "core.online_txns", float64(len(txns)))
		tr.end(root)
	}
	var res core.Result
	tr.do(op, 0, "core.finalize", func() { res = inc.Finalize() })
	if res.OK != in.ref.OK {
		return fmt.Errorf("probe: online verdict %s, reference %s", verdictOfResult(res), in.ref)
	}
	return nil
}

func encodeFrame(w io.Writer, txns []history.Txn) error {
	bw, err := history.NewBinaryWriter(w, 0)
	if err != nil {
		return err
	}
	for i, t := range txns {
		t.ID = i
		if err := bw.WriteTxn(t); err != nil {
			return err
		}
	}
	return bw.Close()
}

func decodeFrame(frame []byte, arena *history.IngestArena) ([]history.Txn, error) {
	fr, err := history.NewBinaryFrameReader(bytes.NewReader(frame), arena)
	if err != nil {
		return nil, err
	}
	var out []history.Txn
	for {
		t, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// probeJobs submits the probe history as jobs, for the job layer's
// accept/queue/run/notify spans.
func probeJobs(tr *tracer, in probeInput) (err error) {
	s := in.jobServer
	if s == nil {
		if s, err = startServer(); err != nil {
			return err
		}
		defer func() {
			if cerr := s.close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	e := &entry{name: "probe", checker: "mtc", level: in.lvl, h: in.h, ref: in.ref}
	cl := s.newClient()
	for r := 0; r < probeReps; r++ {
		if _, cause := runJob(tr, cl, fmt.Sprintf("probe-job-%d", r), e); cause != "" {
			return fmt.Errorf("probe job: %s", cause)
		}
	}
	return nil
}
