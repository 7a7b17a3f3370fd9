package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/dist"
	"repro/sim"
)

// planBytes is a plan's canonical encoding, shard by shard.
func planBytes(in *sweepInput) []byte {
	var b []byte
	for _, sh := range in.plan.Shards() {
		b = sh.AppendEncode(b)
	}
	return b
}

// TestSweepMixRanges pins the shape of the sweep mix at two seeds: the
// share of infeasible cases, the cases per shard of each part, and the
// size cap on infeasible symmetric cases.
func TestSweepMixRanges(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		in := genSweep(seed)
		if !bytes.Equal(planBytes(in), planBytes(genSweep(seed))) {
			t.Fatalf("seed %d: two draws differ", seed)
		}
		var infeasible int
		for _, c := range in.cases {
			if c.mix != mixOneCase && c.mix != mixFamily {
				continue
			}
			if c.feasible {
				continue
			}
			infeasible++
			if !c.symmetric || c.n > infeasibleMaxN {
				t.Errorf("seed %d: infeasible case on n=%d (symmetric=%v)", seed, c.n, c.symmetric)
			}
		}
		if share := float64(infeasible) / float64(len(in.cases)); share < 0.01 || share > 0.05 {
			t.Errorf("seed %d: infeasible share %.3f outside [0.01, 0.05]", seed, share)
		}

		// Cases per shard, by the mix of the shard's cases.
		perMix := map[int][]int{}
		i := 0
		for _, sh := range in.plan.Shards() {
			mix := -1
			for range sh.Cases {
				// The planner flattens shard by shard only when keys are
				// added contiguously, which genSweep does.
				if mix >= 0 && in.cases[i].mix != mix {
					t.Fatalf("seed %d: shard mixes parts %d and %d", seed, mix, in.cases[i].mix)
				}
				mix = in.cases[i].mix
				i++
			}
			perMix[mix] = append(perMix[mix], len(sh.Cases))
		}
		ranges := map[int][2]int{
			mixOneCase: {1, 1},
			mixFamily:  {6, 48},
			mixLazy:    {lazySeeds, lazySeeds},
			mixMulti:   {multiPerShard, multiPerShard},
		}
		for mix, r := range ranges {
			if len(perMix[mix]) == 0 {
				t.Errorf("seed %d: no shards of part %d", seed, mix)
			}
			for _, n := range perMix[mix] {
				if n < r[0] || n > r[1] {
					t.Errorf("seed %d: part %d shard of %d cases, want [%d, %d]", seed, mix, n, r[0], r[1])
				}
			}
		}
		if got := len(perMix[mixOneCase]); got != oneCaseShards {
			t.Errorf("seed %d: %d one-case shards, want %d", seed, got, oneCaseShards)
		}
		if mean := float64(len(in.cases)) / float64(len(in.plan.Shards())); mean < 1.5 || mean > 3 {
			t.Errorf("seed %d: %.2f cases per shard, want [1.5, 3]", seed, mean)
		}
	}
	if bytes.Equal(planBytes(genSweep(1)), planBytes(genSweep(2))) {
		t.Error("seeds 1 and 2 draw the same plan")
	}
}

// runPlan executes a plan serially, shard by shard.
func runPlan(t *testing.T, in *sweepInput) []dist.CaseResult {
	t.Helper()
	be := newBackend()
	defer be.Close()
	res, err := in.plan.Run(be)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOraclePlantedFaults plants one wrong outcome of each kind into a
// correct sweep and requires the oracle to reject it.
func TestOraclePlantedFaults(t *testing.T) {
	in := genSweep(3)
	good := runPlan(t, in)
	if err := checkSweep(in, good); err != nil {
		t.Fatalf("oracle rejects the real results: %v", err)
	}
	find := func(pred func(c *sweepCase) bool) int {
		for i := range in.cases {
			if pred(&in.cases[i]) {
				return i
			}
		}
		t.Fatal("no case for the planted fault")
		return -1
	}
	plants := []struct {
		name  string
		pick  func(c *sweepCase) bool
		plant func(r *dist.CaseResult, c *sweepCase)
	}{
		{"feasible case not met", func(c *sweepCase) bool { return c.mix == mixOneCase }, func(r *dist.CaseResult, c *sweepCase) {
			r.Two.Outcome = sim.BudgetExhausted
		}},
		{"infeasible case met", func(c *sweepCase) bool { return c.mix == mixFamily && !c.feasible }, func(r *dist.CaseResult, c *sweepCase) {
			r.Two.Outcome, r.Two.MeetingRound, r.Two.TimeFromLater = sim.Met, c.desc.Delay+1, 1
		}},
		{"meeting after the guarantee", func(c *sweepCase) bool { return c.mix == mixFamily && c.feasible }, func(r *dist.CaseResult, c *sweepCase) {
			r.Two.TimeFromLater = c.bound + 1
			r.Two.MeetingRound = c.desc.Delay + c.bound + 1
		}},
		{"lazyrandom run censored", func(c *sweepCase) bool { return c.mix == mixLazy }, func(r *dist.CaseResult, c *sweepCase) {
			r.Two.Outcome, r.Two.Rounds = sim.BudgetExhausted, c.desc.Budget
		}},
		{"k-agent duplicate meeting", func(c *sweepCase) bool { return c.mix == mixMulti }, func(r *dist.CaseResult, c *sweepCase) {
			r.Multi.Meetings = append(r.Multi.Meetings, r.Multi.Meetings[0])
		}},
		{"k-agent feasible pair missing", func(c *sweepCase) bool { return c.mix == mixMulti }, func(r *dist.CaseResult, c *sweepCase) {
			r.Multi.Meetings = r.Multi.Meetings[1:]
		}},
	}
	for _, p := range plants {
		i := find(p.pick)
		bad := make([]dist.CaseResult, len(good))
		copy(bad, good)
		bad[i].Multi.Meetings = append([]sim.Meeting(nil), good[i].Multi.Meetings...)
		p.plant(&bad[i], &in.cases[i])
		if err := checkSweep(in, bad); err == nil {
			t.Errorf("%s: oracle accepted the planted result", p.name)
		}
	}
}

// plantBackend flips the outcome of the first case of the first shard.
type plantBackend struct{ dist.Backend }

func (b plantBackend) Run(shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	res, err := b.Backend.Run(shards)
	if err == nil {
		c := &res[0].Cases[0]
		if c.Two.Outcome == sim.Met {
			c.Two.Outcome = sim.BudgetExhausted
		} else {
			c.Two.Outcome = sim.Met
		}
	}
	return res, err
}

// TestPlantedOutcomeFailsOp requires a planted wrong outcome to count as
// a failed op in the closed loop of every workload.
func TestPlantedOutcomeFailsOp(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		w := &sweepWorkload{in: genSweep(4)}
		if _, err := timeSetup(w); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if r := runLoop(w, time.Millisecond, nil); r.failed != 0 {
			t.Fatalf("clean loop: %d of %d ops failed", r.failed, r.attempted)
		}
		inner := w.be
		w.be = plantBackend{inner}
		r := runLoop(w, time.Millisecond, nil)
		w.be = inner
		if r.attempted == 0 || r.failed != r.attempted {
			t.Fatalf("planted loop: %d of %d ops failed", r.failed, r.attempted)
		}
	})
	t.Run("daemon", func(t *testing.T) {
		w := &daemonWorkload{in: genSweep(4), dir: t.TempDir()}
		if _, err := timeSetup(w); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if r := runLoop(w, time.Millisecond, nil); r.failed != 0 {
			t.Fatalf("clean loop: %d of %d ops failed", r.failed, r.attempted)
		}
		// Warm ops read the store: a result that differs from the
		// direct sweep's fails them.
		w.want[0][0] ^= 1
		r := runLoop(w, time.Millisecond, nil)
		w.want[0][0] ^= 1
		if r.attempted == 0 || r.failed != r.attempted {
			t.Fatalf("warm loop against a planted result: %d of %d ops failed", r.failed, r.attempted)
		}
		// Cold ops execute the shards: a planted outcome fails them.
		w.cold = true
		inner := w.be
		w.be = plantBackend{inner}
		r = runLoop(w, time.Millisecond, nil)
		w.be = inner
		if r.attempted == 0 || r.failed != r.attempted {
			t.Fatalf("planted cold loop: %d of %d ops failed", r.failed, r.attempted)
		}
	})
	t.Run("tables", func(t *testing.T) {
		w := &tablesWorkload{}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		w.digest[0] ^= 1 // as if a table rendered differently
		if r := runLoop(w, time.Millisecond, nil); r.attempted == 0 || r.failed != r.attempted {
			t.Fatalf("planted loop: %d of %d ops failed", r.failed, r.attempted)
		}
	})
}

// TestTracedOpReplaysEqual runs one traced sweep op: the serial replay,
// batch on and off, must reproduce the dispatched results.
func TestTracedOpReplaysEqual(t *testing.T) {
	w := &sweepWorkload{in: genSweep(5)}
	if _, err := timeSetup(w); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	tr := newTracer()
	defer tr.close()
	r := runLoop(w, time.Millisecond, tr)
	if r.failed != 0 {
		t.Fatalf("%d of %d traced ops failed", r.failed, r.attempted)
	}
	s := r.samples[0]
	if s["dist.shards"] != float64(len(w.in.plan.Shards())) || s["dist.cases"] != float64(w.in.plan.Len()) {
		t.Errorf("dist.shards=%v dist.cases=%v, plan has %d shards and %d cases",
			s["dist.shards"], s["dist.cases"], len(w.in.plan.Shards()), w.in.plan.Len())
	}
	for _, m := range []string{"sim.replay_ms", "sim.batch_ms", "sim.loop_ms", "sim.rounds", "sim.wakeups", "dist.codec_us_per_shard"} {
		if s[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, s[m])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {300, 95}, {100, 90}, {40, 75}, {20, 50}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics equal
// to what the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "tables,sweep,daemon" {
		t.Errorf("workloads %s", got)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], printed %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
