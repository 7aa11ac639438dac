package mtcserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/history"
)

// checkJob submits req and, once it is accepted, waits for the job to
// finish. It returns the submit response and the finished job's report
// (nil when the job was refused or did not finish done).
func checkJob(t *testing.T, ts *httptest.Server, req api.JobRequest) (*http.Response, *checker.Report) {
	t.Helper()
	resp, job := submitJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		return resp, nil
	}
	job = waitJob(t, ts, job.ID, 5*time.Second)
	return resp, job.Report
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestCheckValidHistory(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	h := history.SerialHistory(20, "x", "y")
	resp, v := checkJob(t, ts, api.JobRequest{Level: "SER", History: h})
	if resp.StatusCode != http.StatusAccepted || v == nil || !v.OK || v.Level != "SER" {
		t.Fatalf("verdict: %d %+v", resp.StatusCode, v)
	}
	if v.Txns != len(h.Txns) || v.Edges == 0 {
		t.Fatalf("stats: %+v", v)
	}
}

func TestCheckViolationReturnsCounterexample(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	f := history.FixtureByName("WriteSkew")
	_, v := checkJob(t, ts, api.JobRequest{Level: "SER", History: f.H})
	if v == nil || v.OK || len(v.Cycle) == 0 || !strings.Contains(v.Detail, "RW") {
		t.Fatalf("want write-skew cycle, got %+v", v)
	}
	_, v = checkJob(t, ts, api.JobRequest{Level: "SI", History: f.H})
	if v == nil || !v.OK {
		t.Fatalf("WriteSkew must pass SI: %+v", v)
	}
	_, v = checkJob(t, ts, api.JobRequest{Level: "SI", History: history.FixtureByName("LostUpdate").H})
	if v == nil || v.OK || !strings.Contains(v.Detail, "DIVERGENCE") {
		t.Fatalf("want divergence detail, got %+v", v)
	}
}

func TestCheckBaselineCheckers(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	h := history.SerialHistory(10, "x")
	resp, v := checkJob(t, ts, api.JobRequest{Checker: "cobra", Level: "SER", History: h})
	if resp.StatusCode != http.StatusAccepted || v == nil || !v.OK || v.Checker != "cobra" {
		t.Fatalf("cobra verdict: %d %+v", resp.StatusCode, v)
	}
	resp, v = checkJob(t, ts, api.JobRequest{Checker: "polysi", Level: "SI", History: h})
	if resp.StatusCode != http.StatusAccepted || v == nil || !v.OK || v.Checker != "polysi" {
		t.Fatalf("polysi verdict: %d %+v", resp.StatusCode, v)
	}
	// Mismatched level/checker combos are rejected.
	resp, _ = checkJob(t, ts, api.JobRequest{Checker: "cobra", Level: "SI", History: h})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cobra on SI must 400, got %d", resp.StatusCode)
	}
}

func TestCheckErrors(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, _ := checkJob(t, ts, api.JobRequest{Level: "NOPE", History: history.SerialHistory(2)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad level must 400, got %d", resp.StatusCode)
	}
	raw, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"level":"SI","history":{bogus`))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body must 400, got %d", raw.StatusCode)
	}
	resp, _ = checkJob(t, ts, api.JobRequest{Checker: "bogus", History: history.SerialHistory(2)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad checker must 400, got %d", resp.StatusCode)
	}
}

func TestFixturesEndpoints(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/fixtures")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fixtures: %v", err)
	}
	var names []string
	_ = json.NewDecoder(resp.Body).Decode(&names)
	resp.Body.Close()
	if len(names) != 16 {
		t.Fatalf("names = %v", names)
	}
	resp, err = http.Get(ts.URL + "/v1/fixtures/WriteSkew?level=SI")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatal("fixture lookup failed")
	}
	var v checker.Report
	_ = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if !v.OK || v.Level != "SI" {
		t.Fatalf("WriteSkew/SI verdict: %+v", v)
	}
	resp, _ = http.Get(ts.URL + "/v1/fixtures/Nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fixture must 404, got %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/v1/fixtures/WriteSkew?level=NOPE")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad level must 400, got %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestDefaultLevelIsSI(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	_, v := checkJob(t, ts, api.JobRequest{History: history.SerialHistory(3)})
	if v == nil || v.Level != "SI" {
		t.Fatalf("default level = %+v", v)
	}
}
