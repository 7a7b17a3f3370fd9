package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/dist"
	"repro/experiments"
	"repro/rvd"
)

// A workload runs ops in a closed loop: one client, one process, the
// in-process dist backend with one worker per CPU.
type workload interface {
	// setup constructs the backend and runs the first, cache-cold op.
	// It is what setup_s times.
	setup() error
	// check verifies the set-up op against a reference that would warm
	// the process if it ran before setup.
	check() error
	// op runs one op; tr is nil on untraced ops. A non-nil error is a
	// failed op: an operation error or an output the oracle rejects.
	op(tr *opTrace) (opTimes, error)
	close()
}

// opTimes is one op's measured wall time. Traced daemon ops also report
// their untimed cold job.
type opTimes struct {
	total, cold time.Duration
	cases       int // cases per op: the plan's, or the dist cases of a regeneration
}

func newBackend() dist.Backend { return dist.NewInProcess(runtime.NumCPU()) }

// tables: one op regenerates E1-E19 through experiments.Registry(false),
// what rvx does by default.
type tablesWorkload struct {
	be     dist.Backend
	digest [sha256.Size]byte
	cases  int // dist cases per regeneration, counted at setup
}

func (w *tablesWorkload) setup() error {
	w.be = newBackend()
	count := &opTrace{}
	experiments.SetDistBackend(&timedBackend{inner: w.be, op: count})
	sum, err := w.regenerate(nil)
	experiments.SetDistBackend(w.be)
	w.digest = sum
	for _, sw := range count.sweeps {
		for _, sh := range sw.shards {
			w.cases += len(sh.Cases)
		}
	}
	return err
}

// regenerate runs every experiment, checks each table and returns the
// digest of the rendered markdown.
func (w *tablesWorkload) regenerate(tr *opTrace) ([sha256.Size]byte, error) {
	h := sha256.New()
	var failed []string
	for _, e := range experiments.Registry(false) {
		var sp *span
		var run0 time.Duration
		if tr != nil {
			sp = tr.t.begin(e.ID, "experiments", tr.parent, 1)
			tr.parent, run0 = sp.id, tr.runDur
		}
		t := e.Run()
		if tr != nil {
			d := sp.end()
			tr.parent = sp.parent
			tr.sample["experiments."+e.ID+"_ms"] = ms(d)
			tr.sample["experiments.self_ms"] += ms(d - (tr.runDur - run0))
		}
		if !t.OK() {
			failed = append(failed, fmt.Sprintf("%s: %v", e.ID, t.Failed))
		}
		h.Write([]byte(t.Markdown()))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	if len(failed) > 0 {
		return sum, fmt.Errorf("failed table checks: %v", failed)
	}
	return sum, nil
}

func (w *tablesWorkload) check() error { return nil }

func (w *tablesWorkload) op(tr *opTrace) (opTimes, error) {
	if tr != nil {
		experiments.SetDistBackend(&timedBackend{inner: w.be, op: tr})
		defer experiments.SetDistBackend(w.be)
		tr.startCounters()
	}
	t0 := time.Now()
	sum, err := w.regenerate(tr)
	ot := opTimes{total: time.Since(t0), cases: w.cases}
	if tr != nil {
		tr.stopCounters()
	}
	if err == nil && sum != w.digest {
		err = fmt.Errorf("rendered tables differ from the set-up regeneration")
	}
	return ot, err
}

func (w *tablesWorkload) close() {
	experiments.SetDistBackend(nil)
	w.be.Close()
}

// sweep: one op runs the seed's planned STIC sweep on the in-process
// backend.
type sweepWorkload struct {
	in     *sweepInput
	be     dist.Backend
	first  []dist.CaseResult // the set-up sweep's results, for check
	digest [sha256.Size]byte
}

func (w *sweepWorkload) setup() error {
	w.be = newBackend()
	var err error
	w.first, err = w.in.plan.Run(w.be)
	return err
}

func resultsDigest(res []dist.CaseResult) [sha256.Size]byte {
	sr := dist.ShardResult{Cases: res}
	return sha256.Sum256(sr.AppendEncode(nil))
}

// check runs the oracle on the set-up sweep and keeps its digest as the
// reference for every later op.
func (w *sweepWorkload) check() error {
	if err := checkSweep(w.in, w.first); err != nil {
		return err
	}
	w.digest = resultsDigest(w.first)
	w.first = nil
	return nil
}

func (w *sweepWorkload) op(tr *opTrace) (opTimes, error) {
	var be dist.Backend = w.be
	if tr != nil {
		be = &timedBackend{inner: w.be, op: tr}
		tr.startCounters()
	}
	t0 := time.Now()
	res, err := w.in.plan.Run(be)
	ot := opTimes{total: time.Since(t0), cases: w.in.plan.Len()}
	if tr != nil {
		tr.stopCounters()
	}
	if err != nil {
		return ot, err
	}
	if err := checkSweep(w.in, res); err != nil {
		return ot, err
	}
	if resultsDigest(res) != w.digest {
		return ot, fmt.Errorf("sweep results differ from the set-up sweep")
	}
	return ot, nil
}

func (w *sweepWorkload) close() { w.be.Close() }

// daemon: the set-up opens an rvd daemon on a fresh state directory,
// behind its HTTP handler on loopback, and submits the seed's sweep
// through rvd.Client as the cold job. One op reopens a daemon on that
// directory and submits the sweep again as a warm job: every shard is a
// store hit, so it exercises store reads and HTTP only. Opening and
// closing the daemon are not timed. With cold set (traced runs), each
// op first runs a cold job on a fresh state directory and then the warm
// job on that one, which gives the per-layer cold/warm split. Results
// must equal the direct sweep's byte for byte.
//
// Untraced ops run no cold job: it stores every shard with two fsyncs,
// so a loop of them issues thousands of fsyncs a second, and its time
// swung 137-294 ms between runs of one build on a 2-vCPU VM.
type daemonWorkload struct {
	in    *sweepInput
	dir   string // parent of the state directories
	cold  bool   // ops run a cold job on a fresh state directory first
	state string // the set-up's state directory, read by warm ops
	be    dist.Backend
	want  [][]byte // encoded results per shard
}

func (w *daemonWorkload) setup() error {
	w.be = newBackend()
	var err error
	if w.state, err = os.MkdirTemp(w.dir, "state-"); err != nil {
		return err
	}
	cold, _, err := w.session(w.state, nil, "job.cold")
	if err != nil {
		return err
	}
	for _, r := range cold[0] {
		w.want = append(w.want, r.AppendEncode(nil))
	}
	return nil
}

// check runs the plan directly, checks it with the sweep oracle, and
// requires the set-up's cold results to equal it.
func (w *daemonWorkload) check() error {
	res, err := w.be.Run(w.in.plan.Shards())
	if err != nil {
		return err
	}
	flat, err := w.in.plan.Run(w.be)
	if err != nil {
		return err
	}
	if err := checkSweep(w.in, flat); err != nil {
		return err
	}
	for i, r := range res {
		if !bytes.Equal(r.AppendEncode(nil), w.want[i]) {
			return fmt.Errorf("shard %d: set-up cold job result differs from the direct sweep", i)
		}
	}
	return nil
}

func (w *daemonWorkload) op(tr *opTrace) (ot opTimes, err error) {
	dir, jobs := w.state, []string{"job.warm"}
	if w.cold {
		if dir, err = os.MkdirTemp(w.dir, "state-"); err != nil {
			return ot, err
		}
		defer os.RemoveAll(dir)
		jobs = []string{"job.cold", "job.warm"}
	}
	res, durs, err := w.session(dir, tr, jobs...)
	if err != nil {
		return ot, err
	}
	ot = opTimes{total: durs[len(durs)-1], cases: w.in.plan.Len()}
	if w.cold {
		ot.cold = durs[0]
	}
	for j, name := range jobs {
		for i, r := range res[j] {
			if !bytes.Equal(r.AppendEncode(nil), w.want[i]) {
				return ot, fmt.Errorf("shard %d: %s result differs from the direct sweep", i, name)
			}
		}
	}
	return ot, nil
}

// session opens a daemon on dir behind a loopback HTTP server, submits
// the sweep once per named job and closes the daemon. It returns each
// job's results and time; tr, when set, gets spans, counters and the
// rvd per-layer numbers.
func (w *daemonWorkload) session(dir string, tr *opTrace, jobs ...string) (res [][]*dist.ShardResult, durs []time.Duration, err error) {
	var be dist.Backend = w.be
	if tr != nil {
		be = &timedBackend{inner: w.be, op: tr}
	}
	d, err := rvd.Open(rvd.Config{Dir: dir, Backend: be})
	if err != nil {
		return nil, nil, fmt.Errorf("opening daemon: %w", err)
	}
	srv := httptest.NewServer(d.Handler())
	cl := &rvd.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	defer func() {
		srv.Close()
		if cerr := d.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing daemon: %w", cerr)
		}
	}()

	shards := w.in.plan.Shards()
	if tr != nil {
		tr.startCounters()
	}
	var sum time.Duration
	for _, name := range jobs {
		var sp *span
		if tr != nil {
			sp = tr.t.begin(name, "rvd", tr.parent, 1)
			tr.parent = sp.id
		}
		t0 := time.Now()
		r, err := cl.Run(shards)
		dur := time.Since(t0)
		if sp != nil {
			sp.end()
			tr.parent = sp.parent
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		res, durs, sum = append(res, r), append(durs, dur), sum+dur
	}
	if tr != nil {
		tr.stopCounters()
		tr.sample["rvd.backend_ms"] = ms(tr.runDur)
		tr.sample["rvd.self_ms"] = ms(sum - tr.runDur)
		if err := checkStats(srv, tr.sample); err != nil {
			return nil, nil, err
		}
	}
	return res, durs, nil
}

// rvdStats is the subset of GET /v1/stats the op cross-checks.
type rvdStats struct {
	CacheHits int `json:"cache_hits"`
	Executed  int `json:"executed"`
}

// checkStats cross-checks GET /v1/stats against the registry deltas of
// the op: the daemon was opened for the op, so its totals are the op's.
func checkStats(srv *httptest.Server, sample map[string]float64) error {
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		return fmt.Errorf("fetching /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	var st rvdStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding /v1/stats: %w", err)
	}
	if float64(st.CacheHits) != sample["rvd.cache_hits"] || float64(st.Executed) != sample["rvd.shards_executed"] {
		return fmt.Errorf("/v1/stats says %d hits and %d executed, /metrics %v and %v",
			st.CacheHits, st.Executed, sample["rvd.cache_hits"], sample["rvd.shards_executed"])
	}
	return nil
}

func (w *daemonWorkload) close() {
	w.be.Close()
	if w.state != "" {
		os.RemoveAll(w.state)
	}
}

// stateDir is the benchmark's scratch directory inside the checkout.
func stateDir() string { return filepath.Join(".bench_build", "perfbench") }
