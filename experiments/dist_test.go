package experiments

// The distributed-dispatch acceptance test at the experiments layer: the
// distributable experiments must regenerate byte-for-byte identical
// tables whether their sweeps run on the default in-process backend or
// on real forked worker processes (this test binary doubles as its own
// worker via dist.RunWorkerIfChild in TestMain) — the test-suite twin of
// the CI job that diffs `rvx --dist-workers 2` against plain rvx.

import (
	"os"
	"testing"

	"repro/dist"
	"repro/graph"
	"repro/stic"
)

func TestMain(m *testing.M) {
	dist.RunWorkerIfChild()
	os.Exit(m.Run())
}

func distTables() map[string]string {
	return map[string]string{
		"E7":  E7(false).Markdown(),
		"E12": E12().Markdown(),
		"E17": E17(false).Markdown(),
	}
}

func TestDistributedTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker subprocesses")
	}
	want := distTables() // default in-process backend
	be, err := dist.NewLocal(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	SetDistBackend(be)
	defer SetDistBackend(nil)
	got := distTables()
	for id, tbl := range want {
		if got[id] != tbl {
			t.Errorf("%s: table differs between in-process and 2-worker distributed execution\n--- in-process ---\n%s\n--- distributed ---\n%s", id, tbl, got[id])
		}
	}
}

// TestE7PlanBatchEligible pins that every E7 shard is declared
// batch-eligible: the grid is seed-free parameter variation of one
// program pair, so workers may route it through the batch engine.
func TestE7PlanBatchEligible(t *testing.T) {
	k2 := graph.TwoNode()
	p3 := graph.Path(3)
	cases := []e7Case{
		{k2, 0, 1, 1},
		{k2, 0, 1, 2},
		{p3, 0, 2, 0},
		{p3, 0, 2, 1},
	}
	var cl stic.Classifier
	reps := make([]stic.Report, len(cases))
	for i, c := range cases {
		reps[i] = cl.Classify(stic.STIC{G: c.g, U: c.u, V: c.v, Delay: c.delta})
	}
	for si, sh := range e7Plan(cases, reps).Shards() {
		if !sh.Batch {
			t.Fatalf("shard %d: E7 grid not declared batch-eligible", si)
		}
	}
}
