package borg

import (
	"errors"
	"strings"
	"testing"

	"borg/internal/testdb"
)

// fixture is a query over a one-dimension history's schema (Fact, Dim0;
// features fx, fy, d0x), and the history.
func fixture(t *testing.T) (*Query, *testdb.History) {
	t.Helper()
	h := testdb.Generate(testdb.Config{Seed: 7, Dims: 1})
	q, err := facadeDB(h).Query()
	if err != nil {
		t.Fatal(err)
	}
	return q, h
}

// served starts a server over fixture's query with the given features
// and options and loads the rows the history's first growth leaves live.
func served(t *testing.T, features func(h *testdb.History) []string, opt ShardOptions) (*ShardedServer, *testdb.History) {
	t.Helper()
	q, h := fixture(t)
	srv, err := q.ServeSharded(features(h), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	o := h.Survivors(len(h.Steps) / 3)
	for _, r := range h.Schema() {
		for _, row := range o.Rows(r.Name) {
			if err := srv.Insert(r.Name, row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.CovarSnapshot().Count() == 0 {
		t.Fatal("the loaded join is empty")
	}
	return srv, h
}

func cont(h *testdb.History) []string { return h.Cont() }

func contAndCats(h *testdb.History) []string { return append(h.Cont(), h.Cats()...) }

// TestServeShardedValidation: construction-time errors at the facade —
// a partition attribute missing from one relation names both; multiple
// shards require a partition attribute.
func TestServeShardedValidation(t *testing.T) {
	q, h := fixture(t)
	// "fc" is not in Dim0.
	_, err := q.ServeSharded(h.Cont(), ShardOptions{Shards: 2, PartitionBy: "fc"})
	if err == nil {
		t.Fatal("partition attribute missing from Dim0 accepted")
	}
	if !strings.Contains(err.Error(), `"fc"`) || !strings.Contains(err.Error(), "Dim0") {
		t.Fatalf("error %q does not name the attribute and the offending relation", err)
	}
	if _, err := q.ServeSharded(h.Cont(), ShardOptions{Shards: 4}); err == nil {
		t.Fatal("multiple shards without PartitionBy accepted")
	}

	// The zero ShardOptions value is a plain single-shard server.
	srv, err := q.ServeSharded(h.Cont(), ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.NumShards() != 1 {
		t.Fatalf("NumShards = %d for zero options, want 1", srv.NumShards())
	}
	if err := srv.Insert("Dim0", "p0", "k00", 3.0, "d0g0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
}

// snapSink keeps facade snapshot reads observable under AllocsPerRun.
var snapSink *ServerSnapshot

// TestCovarSnapshotAllocs pins the facade read: one ServerSnapshot around
// the tier's own snapshot, at one shard and at two.
func TestCovarSnapshotAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		srv, _ := served(t, cont, ShardOptions{Shards: shards, PartitionBy: testdb.Partition})
		srv.CovarSnapshot() // fold once; steady state starts here
		if a := testing.AllocsPerRun(100, func() { snapSink = srv.CovarSnapshot() }); a != 1 {
			t.Errorf("%d shards: CovarSnapshot allocates %.1f, want 1", shards, a)
		}
	}
}

// TestPolyRegRequiresLifted pins the configuration contract: a server
// started without PayloadPoly2 trains every covariance model but returns
// the typed ErrPayloadNotMaintained for polynomial regression.
func TestPolyRegRequiresLifted(t *testing.T) {
	srv, _ := served(t, cont, ShardOptions{})
	snap := srv.CovarSnapshot()
	if snap.Payload() == PayloadPoly2 {
		t.Fatal("unlifted server reports lifted statistics")
	}
	if _, err := snap.TrainLinReg(testdb.Response, 1e-3); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.TrainPCA(2); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.TrainPolyReg(testdb.Response, 1e-3); !errors.Is(err, ErrPayloadNotMaintained) {
		t.Fatalf("TrainPolyReg without PayloadPoly2: %v, want ErrPayloadNotMaintained", err)
	}
}

// TestGDOptionsSurfaceNonConvergence pins the gradient-descent knobs: a
// starved iteration budget must be reported, not silently swallowed.
func TestGDOptionsSurfaceNonConvergence(t *testing.T) {
	srv, _ := served(t, cont, ShardOptions{})
	starved, err := srv.CovarSnapshot().TrainLinRegGD(testdb.Response, 1e-3, GDOptions{MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if starved.Converged() {
		t.Fatal("2-iteration budget reported convergence")
	}
	if starved.IterationsRun() != 2 {
		t.Fatalf("IterationsRun = %d, want 2", starved.IterationsRun())
	}
	full, err := srv.CovarSnapshot().TrainLinRegGD(testdb.Response, 1e-3, GDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged() {
		t.Fatalf("default budget did not converge (%d iters)", full.IterationsRun())
	}
}

// TestCatZooPayloadGates certifies the typed-error contract per model
// kind: a kind whose ring payload the server does not maintain refuses
// with ErrPayloadNotMaintained, and every kind on an empty cofactor join
// refuses with ErrEmptySnapshot — never NaN parameters.
func TestCatZooPayloadGates(t *testing.T) {
	const y = testdb.Response
	kinds := func(srv *ShardedServer) map[string]error {
		_, poly := srv.CovarSnapshot().TrainPolyReg(y, 1e-3)
		_, chow := srv.CovarSnapshot().TrainChowLiu()
		_, tree := srv.CovarSnapshot().TrainCTree(y, TreeOptions{})
		_, svm := srv.CovarSnapshot().TrainSVM(y, 1e-3)
		_, lin := srv.CovarSnapshot().TrainLinRegGD(y, 1e-3, GDOptions{})
		return map[string]error{"polyreg": poly, "chowliu": chow, "ctree": tree, "svm": svm, "linreg": lin}
	}
	for _, tc := range []struct {
		name    string
		payload Payload
		load    bool
		want    map[string]error
	}{
		{"covar", PayloadCovar, true, map[string]error{"polyreg": ErrPayloadNotMaintained, "chowliu": ErrPayloadNotMaintained, "ctree": ErrPayloadNotMaintained, "svm": ErrPayloadNotMaintained}},
		{"poly2", PayloadPoly2, true, map[string]error{"chowliu": ErrPayloadNotMaintained, "svm": ErrPayloadNotMaintained}},
		{"cofactor-empty", PayloadCofactor, false, map[string]error{"polyreg": ErrEmptySnapshot, "chowliu": ErrEmptySnapshot, "ctree": ErrEmptySnapshot, "svm": ErrEmptySnapshot, "linreg": ErrEmptySnapshot}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feats := cont
			if tc.payload == PayloadCofactor {
				feats = contAndCats
			}
			var srv *ShardedServer
			if tc.load {
				srv, _ = served(t, feats, ShardOptions{ServerOptions: ServerOptions{Payload: tc.payload}})
			} else {
				q, h := fixture(t)
				var err error
				if srv, err = q.ServeSharded(feats(h), ShardOptions{ServerOptions: ServerOptions{Payload: tc.payload}}); err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
			}
			if srv.Payload() != tc.payload {
				t.Fatalf("Payload = %v, want %v", srv.Payload(), tc.payload)
			}
			got := kinds(srv)
			for kind, want := range tc.want {
				if !errors.Is(got[kind], want) {
					t.Errorf("%s on %s = %v, want %v", kind, tc.name, got[kind], want)
				}
			}
		})
	}

	t.Run("categorical-features-need-cofactor", func(t *testing.T) {
		q, h := fixture(t)
		if _, err := q.ServeSharded(contAndCats(h), ShardOptions{}); err == nil || !strings.Contains(err.Error(), "categorical") {
			t.Fatalf("Serve with categorical features on covar payload = %v, want a categorical-feature error", err)
		}
	})
}

// TestFacadeErrorsNameAvailable: a bad pinned root and an unknown
// snapshot feature both name what IS available instead of failing
// opaquely.
func TestFacadeErrorsNameAvailable(t *testing.T) {
	q, h := fixture(t)
	q.Root = "Nope"
	if _, err := q.ServeSharded(h.Cont(), ShardOptions{}); err == nil ||
		!strings.Contains(err.Error(), "the join's relations are Fact, Dim0") {
		t.Fatalf("bad root error = %v, want the available relations named", err)
	}
	q.Root = ""
	srv, err := q.ServeSharded(h.Cont(), ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.CovarSnapshot().Mean("ghost"); err == nil ||
		!strings.Contains(err.Error(), "the maintained features are fx, fy, d0x") {
		t.Fatalf("unknown feature error = %v, want the maintained features named", err)
	}
}
