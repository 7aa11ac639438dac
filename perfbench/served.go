package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"mtc/internal/api"
	"mtc/internal/history"
	"mtc/internal/mtcserve"
	"mtc/pkg/client"
)

// opTimeout bounds one served operation; a job or batch that has not
// answered by then counts as a failed operation.
const opTimeout = 60 * time.Second

// served is an in-process mtcserve.Server — the handler mtc-serve runs —
// on a loopback listener.
type served struct {
	srv       *mtcserve.Server
	hs        *http.Server
	url       string
	serveDone chan error
}

func startServer() (*served, error) {
	s := &served{srv: mtcserve.NewServer(nil), serveDone: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.serveDone <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the job pool, then the listener, and waits for Serve.
func (s *served) close() error {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if err := s.hs.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("shutdown: %w", err))
	}
	if err := <-s.serveDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("serve: %w", err))
	}
	return errors.Join(errs...)
}

// newClient returns an SDK client that never retries: a refused or
// failed call is one failed operation, not a hidden second attempt.
func (s *served) newClient() *client.Client {
	return client.New(s.url, client.WithRetries(0))
}

// runJob submits e as one job, follows its event stream to the terminal
// event and checks the verdict against the reference. It returns the
// latency from submit to terminal event and the failure cause ("" on
// success). With tracing on, the server's job timestamps split the
// latency into accept, queue wait, run and notify spans.
func runJob(tr *tracer, cl *client.Client, op string, e *entry) (time.Duration, string) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	root := tr.begin(op, 0, "serve.job")
	t0 := time.Now()
	job, err := cl.SubmitJob(ctx, api.JobRequest{
		Checker: e.checker, Level: string(e.level), History: e.h, Shard: e.shard,
	})
	t202 := time.Now()
	tr.count(op, "mtcserve.submits", 1)
	if err != nil {
		tr.end(root)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
			tr.count(op, "mtcserve.rejected", 1)
			return 0, "429 queue full"
		}
		return 0, "submit: " + err.Error()
	}
	var final api.JobEvent
	err = cl.StreamEvents(ctx, job.ID, func(ev api.JobEvent) error {
		if api.JobTerminal(ev.State) {
			final = ev
		}
		return nil
	})
	tEvent := time.Now()
	tr.end(root)
	if err != nil {
		return 0, "events: " + err.Error()
	}
	if final.State != api.JobDone {
		return 0, fmt.Sprintf("job %s %s: %s", job.ID, final.State, final.Error)
	}
	if tr != nil {
		doc, err := cl.GetJob(ctx, job.ID)
		if err == nil && doc.StartedAt != nil && doc.FinishedAt != nil {
			tr.add(op, root, "mtcserve.accept", t0, t202)
			tr.add(op, root, "mtcserve.queue_wait", doc.CreatedAt, *doc.StartedAt)
			tr.add(op, root, "mtcserve.run", *doc.StartedAt, *doc.FinishedAt)
			tr.add(op, root, "mtcserve.notify", *doc.FinishedAt, tEvent)
		}
	}
	if got := verdictOfReport(final.Report); got != e.ref {
		return 0, fmt.Sprintf("verdict %s, reference %s", got, e.ref)
	}
	return tEvent.Sub(t0), ""
}

// payloads converts history transactions to the SDK's wire form.
func payloads(txns []history.Txn) []client.TxnPayload {
	out := make([]client.TxnPayload, len(txns))
	for i, t := range txns {
		committed := t.Committed
		out[i] = client.TxnPayload{Sess: t.Session, Ops: t.Ops, Committed: &committed, Start: t.Start, Finish: t.Finish}
	}
	return out
}
