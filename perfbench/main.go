// Command perfbench is the repository benchmark. It runs one workload in
// a closed loop (one client, one process, the in-process dist backend
// with one worker per CPU) for a fixed time, checks every op's output,
// and prints every metric by name with its unit; the last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 they are the per-layer ones: half the time runs
// untraced for reference, half traced, and the gap is the tracing
// overhead. The benchmark times the public calls it makes into the
// program and reads the program's obs registry; it changes no program
// code. Run it through run.py, which builds it from source:
//
//	python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the -trace 0 metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cases_per_s", "1/s"},
}

// perLayer are the -trace 1 metrics, reported on every workload (zero
// where a workload does not reach the layer). op_tail_ms and
// peak_rss_mb are here rather than end-to-end because they do not
// repeat within a tenth across runs.
var perLayer = func() []metricDef {
	m := []metricDef{{"op_tail_ms", "ms"}, {"peak_rss_mb", "MB"}}
	for i := 1; i <= 19; i++ {
		m = append(m, metricDef{fmt.Sprintf("experiments.E%d_ms", i), "ms"})
	}
	return append(m, []metricDef{
		{"experiments.self_ms", "ms"},
		{"dist.sweeps", "count"},
		{"dist.shards", "count"},
		{"dist.cases", "count"},
		{"dist.run_ms", "ms"},
		{"dist.requeues", "count"},
		{"dist.chunks", "count"},
		{"dist.codec_us_per_shard", "us"},
		{"dist.exec_share", "ratio"},
		{"sim.replay_ms", "ms"},
		{"sim.batch_ms", "ms"},
		{"sim.loop_ms", "ms"},
		{"sim.rounds", "count"},
		{"sim.runs.pair", "count"},
		{"sim.runs.multi", "count"},
		{"sim.runs.batch", "count"},
		{"sim.wakeups", "count"},
		{"sim.wakeups.viewWalk", "count"},
		{"sim.wakeups.explore", "count"},
		{"sim.wakeups.symmRV", "count"},
		{"sim.wakeups.schedule", "count"},
		{"sim.wakeups.other", "count"},
		{"stic.classify_ms", "ms"},
		{"rvd.job_cold_p50_ms", "ms"},
		{"rvd.job_warm_p50_ms", "ms"},
		{"rvd.backend_ms", "ms"},
		{"rvd.self_ms", "ms"},
		{"rvd.shards_executed", "count"},
		{"rvd.cache_hits", "count"},
		{"rvd.hit_ratio", "ratio"},
		{"rvd.store_misses", "count"},
		{"rvd.store_written_bytes", "B"},
		{"rvd.store_read_bytes", "B"},
		{"rvd.journal_appends", "count"},
		{"rvd.journal_fsync_mean_us", "us"},
		{"rvd.queue_wait_mean_us", "us"},
		{"go.alloc_mb_per_op", "MB"},
		{"go.gc_cycles_per_op", "count"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

// setupRuns is how many fresh processes time the set-up; setup_s is
// their median. They are spread evenly over the measured loop, so each
// one starts on a machine in the state the loop keeps it in: on a
// 2-vCPU VM a daemon set-up took 0.14 s after 20 s idle and 0.25 s
// right after a 15 s loop of any workload, so set-ups timed ahead of
// the loop would follow whatever ran before the benchmark.
const setupRuns = 21

// warmup is how long ops run untimed after set-up, so heap growth and
// lazily filled caches settle before the measured loop starts.
const warmup = 2 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		name       = flag.String("workload", "", "workload: tables, sweep or daemon")
		seed       = flag.Uint64("seed", 1, "workload seed (sweep and daemon inputs)")
		seconds    = flag.Float64("seconds", 10, "measured seconds")
		trace      = flag.Int("trace", 0, "1 for the traced per-layer run")
		setupChild = flag.Bool("setup-child", false, "time one set-up and print it (internal)")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(stateDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, classifyMs, err := newWorkload(*name, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer w.close()

	if *setupChild {
		d, err := timeSetup(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		fmt.Printf("setup_s %v\n", d.Seconds())
		return 0
	}

	metrics := map[string]float64{}
	var notes []string
	var attempted, failed int
	attempted++
	if _, err := timeSetup(w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up op failed:", err)
		failed++
	}

	wr := runLoop(w, warmup, nil)
	attempted, failed = attempted+wr.attempted, failed+wr.failed
	dur := time.Duration(*seconds * float64(time.Second))
	if *trace == 0 {
		var r loopResult
		var setups []float64
		for range setupRuns {
			s, err := setupSeconds(*name, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
				return 1
			}
			setups = append(setups, s)
			r.add(runLoop(w, dur/setupRuns, nil))
		}
		attempted, failed = attempted+r.attempted, failed+r.failed
		metrics["setup_s"] = median(setups)
		metrics["op_p50_ms"] = median(r.total)
		metrics["cases_per_s"] = float64(r.cases) / r.sumSeconds
		notes = append(notes, fmt.Sprintf("%d ops measured", len(r.total)),
			fmt.Sprintf("setup_s is the median of %d set-ups in fresh processes, %.4f-%.4f s",
				len(setups), slices.Min(setups), slices.Max(setups)))
	} else {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		plain := runLoop(w, dur/2, nil)
		runtime.ReadMemStats(&m1)
		rss := peakRSSMB()
		tr := newTracer()
		defer tr.close()
		traced := runLoop(w, dur/2, tr)
		attempted += plain.attempted + traced.attempted
		failed += plain.failed + traced.failed

		for _, m := range perLayer {
			vals := make([]float64, len(traced.samples))
			for i, s := range traced.samples {
				vals[i] = s[m.name]
			}
			metrics[m.name] = median(vals)
		}
		metrics["stic.classify_ms"] = classifyMs
		p := tailPercentile(len(plain.total))
		metrics["op_tail_ms"] = quantile(plain.total, p/100)
		notes = append(notes, fmt.Sprintf("op_tail_ms is p%v of %d untraced ops", p, len(plain.total)))
		metrics["peak_rss_mb"] = rss
		if len(plain.cold) > 0 {
			metrics["rvd.job_cold_p50_ms"] = median(plain.cold)
			metrics["rvd.job_warm_p50_ms"] = median(plain.total)
		}
		n := float64(plain.attempted)
		metrics["go.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n
		metrics["go.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / n
		metrics["trace.overhead_frac"] = median(traced.total)/median(plain.total) - 1

		path := filepath.Join(stateDir(), fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := writeTrace(tr, path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		notes = append(notes, fmt.Sprintf("%d untraced and %d traced ops; Chrome trace in %s", len(plain.total), len(traced.total), path))
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	return report(*name, *seed, defs, metrics, notes, attempted, failed)
}

// newWorkload builds the named workload; traced runs give daemon ops a
// cold job too.
func newWorkload(name string, seed uint64, traced bool) (workload, float64, error) {
	switch name {
	case "tables":
		return &tablesWorkload{}, 0, nil
	case "sweep":
		in := genSweep(seed)
		return &sweepWorkload{in: in}, in.classifyMs, nil
	case "daemon":
		in := genSweep(seed)
		dir := filepath.Join(stateDir(), "daemon")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		return &daemonWorkload{in: in, dir: dir, cold: traced}, in.classifyMs, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want tables, sweep or daemon)", name)
}

// timeSetup times the set-up, then checks it untimed.
func timeSetup(w workload) (time.Duration, error) {
	t0 := time.Now()
	err := w.setup()
	d := time.Since(t0)
	if err == nil {
		err = w.check()
	}
	return d, err
}

// setupSeconds times one set-up in a fresh process, so process-wide
// caches start cold.
func setupSeconds(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-setup-child")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("set-up process printed %q", out)
	}
	return strconv.ParseFloat(f[1], 64)
}

// loopResult is what a closed loop measured.
type loopResult struct {
	total, cold       []float64 // per-op milliseconds
	cases             int
	sumSeconds        float64 // summed op time
	attempted, failed int
	samples           []map[string]float64 // traced loops: per-op layer samples
}

// add appends o's untraced ops to r.
func (r *loopResult) add(o loopResult) {
	r.total = append(r.total, o.total...)
	r.cold = append(r.cold, o.cold...)
	r.cases += o.cases
	r.sumSeconds += o.sumSeconds
	r.attempted += o.attempted
	r.failed += o.failed
}

const maxLoggedFailures = 5

// runLoop runs ops back to back for dur, at least one. On traced loops each op is
// followed by its untimed analysis (replay, codec timing), which also
// counts toward failure.
func runLoop(w workload, dur time.Duration, tr *tracer) loopResult {
	var r loopResult
	start := time.Now()
	for r.attempted == 0 || time.Since(start) < dur {
		var o *opTrace
		var sp *span
		if tr != nil {
			o = tr.newOp()
			sp = tr.begin("op", "op", 0, 1)
			o.parent = sp.id
		}
		ot, err := w.op(o)
		if tr != nil {
			sp.end()
			if err == nil {
				err = o.analyze()
			}
			r.samples = append(r.samples, o.sample)
		}
		r.attempted++
		if err != nil {
			r.failed++
			if r.failed <= maxLoggedFailures {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", r.attempted, err)
			}
		}
		r.total = append(r.total, ms(ot.total))
		if ot.cold > 0 {
			r.cold = append(r.cold, ms(ot.cold))
		}
		r.cases += ot.cases
		r.sumSeconds += ot.total.Seconds()
	}
	return r
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.tl.WriteTrace(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the readable table and then the JSON result line.
func report(name string, seed uint64, defs []metricDef, metrics map[string]float64, notes []string, attempted, failed int) int {
	fmt.Printf("workload=%s seed=%d attempted=%d failed=%d\n", name, seed, attempted, failed)
	out := resultOut{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, m := range defs {
		v := metrics[m.name]
		fmt.Printf("  %-28s %14.4f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	for _, n := range notes {
		fmt.Println("  note:", n)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	os.Stdout.Write(b.Bytes())
	return 0
}
